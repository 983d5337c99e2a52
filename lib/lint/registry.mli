(** The lint registry: the full 95-rule catalogue and the per-certificate
    runner. *)

val all : Types.t list
(** Every registered lint — 95 rules, 50 of them the paper's new
    Unicode-specific checks (asserted by the test suite). *)

val find : string -> Types.t option
(** [find name] looks a lint up by name — a hashtable hit, not a scan
    (stored-row replay calls this once per recorded lint name). *)

val by_type : Types.nc_type -> Types.t list
(** Lints of a taxonomy type, in registry order (precomputed). *)

val counts_by_type : Types.nc_type -> int * int
(** [(all, new)] lint counts for a taxonomy type — the "#Lints" columns
    of Table 1. *)

val run :
  ?respect_effective_dates:bool ->
  ?include_new:bool ->
  ?only:(Types.t -> bool) ->
  issued:Asn1.Time.t ->
  X509.Certificate.t ->
  Types.finding list
(** [run ~issued cert] evaluates every applicable lint.
    [respect_effective_dates] (default [true]) skips lints whose
    effective date is after [issued] — disabling it reproduces the
    paper's footnote-4 ablation (249.3K → 1.8M).  [include_new]
    (default [true]) set to [false] removes the 50 new lints — the
    "existing linters only" ablation.  [only] restricts the pass to
    lints satisfying the predicate (skipped lints produce no finding
    and no NA count) — the store's incremental recompute runs just the
    lints missing from stored analysis rows. *)

val run_ctx :
  ?respect_effective_dates:bool ->
  ?include_new:bool ->
  ?only:(Types.t -> bool) ->
  issued:Asn1.Time.t ->
  Ctx.t ->
  Types.t list
(** [run_ctx ~issued ctx] runs the same checks as {!run} over a
    caller-built fact table and returns only the noncompliant lints
    ([Warn] or [Fail]), in registry order — what the fused pipeline
    stores per certificate.  The fused pipeline builds one {!Ctx.t} per
    certificate (under the parse span) and shares it between linting,
    classification and the encoding-error scan; here the ["lint"] span
    covers only the checks themselves. *)

val noncompliant :
  ?respect_effective_dates:bool ->
  ?include_new:bool ->
  issued:Asn1.Time.t ->
  X509.Certificate.t ->
  Types.finding list
(** Like {!run} but keeping only [Warn]/[Fail] findings. *)

(** {2 Telemetry}

    Every pass feeds per-lint counters in {!Obs.Registry.default}
    ([unicert_lint_invocations_total], [..._fail_total],
    [..._warn_total], [..._na_total]) and the ["lint"] span histogram.
    A pass writes one verdict per lint into an array and builds its
    result from that array.  Every 8th certificate (process-wide) is
    timed: the runner reads the clock once before the first lint and
    once after each check, charges each lint the interval since the
    previous read, scaled by 8, to [unicert_lint_seconds_total].
    Counters are process-cumulative. *)

type lint_obs = {
  lint_name : string;
  invoked : float;      (** checks executed (non-NA) *)
  failed : float;
  warned : float;
  skipped_na : float;   (** effective-date gated skips *)
  est_seconds : float;  (** sampled wall-clock estimate *)
}

val obs_snapshot : unit -> lint_obs list
(** Current counter values, one record per registered lint, in
    {!all} order.  A test hook: the pinned lint-telemetry test reads
    the deltas through it. *)

(** {2 Fault isolation}

    Every check runs behind an error boundary: a raising lint records a
    [Lint_crash] and degrades to [Na] for that certificate.  A
    per-lint circuit breaker opens after
    {!Faults.Breaker.default_threshold} consecutive crashes, skipping
    the lint (status [Na]) for the rest of the process and reporting it
    degraded. *)

val fault_snapshot : unit -> (string * int * bool) list
(** [(name, total crashes, breaker open)] for every lint that has
    crashed at least once.  Process-cumulative — callers tracking one
    run should diff two snapshots. *)

val degraded : unit -> (string * int) list
(** Lints whose breaker is currently open, with total crash counts. *)

val set_breaker_threshold : int -> unit
(** Apply a trip threshold to every lint breaker (policy wiring). *)

val reset_faults : unit -> unit
(** Close every breaker and zero crash counts (test support). *)
