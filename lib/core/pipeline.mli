(** The corpus analysis pipeline: one streaming pass over the generated
    CT dataset, linting every certificate and accumulating the
    aggregates behind every table and figure of the evaluation. *)

type year_stats = {
  mutable issued : int;
  mutable issued_trusted : int;
  mutable alive_in_year : int;      (** valid at Dec 31 of that year *)
  mutable nc : int;
  mutable nc_trusted : int;
}

type type_stats = {
  mutable certs : int;              (** unique NC certs failing this type *)
  mutable by_new_lints : int;       (** detected only via new lints *)
  mutable errors : int;             (** certs with an error-level finding *)
  mutable warnings : int;
  mutable trusted : int;
  mutable recent : int;             (** issued 2024–2025 *)
  mutable alive : int;              (** still valid 2024–2025 *)
}

type issuer_stats = {
  mutable total : int;
  mutable nc_count : int;
  mutable nc_recent : int;
  trust_now : Ctlog.Dataset.trust;
  trust_at_issuance : Ctlog.Dataset.trust;
  region : string;
  aggregate : bool;
}

type validity_class = V_idn | V_other | V_noncompliant | V_normal

type fault_stats = {
  mutable fault_errors : int;
      (** per-certificate failures absorbed by the boundary, all classes *)
  mutable quarantined : int;
  by_class : (string, int) Hashtbl.t;
      (** {!Faults.Error.class_name} -> count *)
  mutable lint_crashes : int;  (** lint-crash delta during this run *)
  mutable degraded : (string * int) list;
      (** lints whose circuit breaker opened, with total crash counts *)
  mutable resumed_at : int;  (** first delivered index; 0 = fresh run *)
  mutable checkpoints_saved : int;
  mutable aborted : string option;
      (** set when --fail-fast or --max-errors stopped the pass early *)
}

type t = {
  scale : int;
  seed : int;
  mutable total : int;
  mutable idncerts : int;
  mutable trusted : int;
  mutable nc_total : int;            (** with effective dates *)
  mutable nc_ignoring_dates : int;   (** the footnote-4 ablation *)
  mutable nc_old_lints_only : int;   (** without the 50 new lints *)
  mutable nc_trusted : int;
  mutable nc_limited : int;
  mutable nc_untrusted : int;
  mutable nc_recent : int;
  mutable nc_alive : int;
  years : (int, year_stats) Hashtbl.t;
  types : (Lint.nc_type, type_stats) Hashtbl.t;
  lints : (string, int) Hashtbl.t;   (** NC certs per lint *)
  lints_ignoring_dates : (string, int) Hashtbl.t;
      (** NC certs per lint with every lint applied regardless of its
          effective date: the per-lint view of [nc_ignoring_dates]
          (footnote 4) *)
  issuers : (string, issuer_stats) Hashtbl.t;
  validity : (validity_class, int list ref) Hashtbl.t;
      (** validity periods in days, per class *)
  fields : (string * string, int * int) Hashtbl.t;
      (** (issuer org, field) -> (unicode count, deviant count) *)
  mutable encoding_error_certs : int;      (** §5.1 impact scan *)
  mutable encoding_error_verified : int;   (** chain-verifiable subset *)
  mutable encoding_error_subject : int;
  mutable encoding_error_san : int;
  mutable encoding_error_policies : int;
  faults : fault_stats;
  mutable coverage : Ctlog.Fetch.coverage list;
      (** per-log fetch coverage; [[]] for the generate source *)
}

type source =
  | Generate  (** synthesize the corpus in-process (the default) *)
  | Fetch of Ctlog.Fetch.cfg
      (** fetch it page by page from simulated CT logs over the
          fault-injected transport (DESIGN.md §9) *)

val run :
  ?scale:int ->
  ?seed:int ->
  ?policy:Faults.Policy.t ->
  ?mutator:Faults.Mutator.plan ->
  ?drop:bool ->
  ?resume:bool ->
  ?jobs:int ->
  ?source:source ->
  ?store:string ->
  unit ->
  t
(** [run ()] generates the corpus (default scale
    {!Ctlog.Dataset.default_scale}, seed 1) and computes every
    aggregate.

    [jobs] (default 1) sets the number of shards: the index range is
    split into [jobs] contiguous shards, each processed on its own
    domain (generation is pure per [(seed, index)], see
    {!Ctlog.Dataset.generate_at}), and the per-shard aggregates are
    merged in shard order.  Every [jobs] value runs the same driver;
    [jobs = 1] is one shard over the whole range.  A completed run's
    aggregate — and therefore the rendered report — is byte-identical
    for every [jobs] value; only wall-clock telemetry differs.  An
    *aborted* run (fail-fast / max-errors) is not reproducible across
    [jobs]: which certificates other shards reached before noticing the
    stop flag is timing-dependent.  Checkpoints are kept per shard at
    every [jobs] value ([file.shard<k>], see
    {!Faults.Checkpoint.shard_file}; [jobs = 1] uses [file.shard0]);
    resuming reuses a shard cursor only when its saved range matches,
    so changing [jobs] between runs safely restarts mismatched shards
    from their range start.  Quarantine records go to per-shard
    sidecars folded into the main [quarantine-<seed>.jsonl] in index
    order when the pass ends.

    Every certificate is processed behind an error boundary: a failure
    (decode error on a corrupted delivery, a crashing lint that trips
    its breaker, a watchdog timeout, a resource exhaustion) is
    classified into the {!Faults.Error.t} taxonomy, counted in
    [t.faults], optionally written to the {!Faults.Quarantine} sidecar,
    and the pass continues with the next certificate.  [policy]
    controls the boundary ({!Faults.Policy.max_errors},
    [fail_fast], [quarantine_dir], [timeout_seconds],
    [breaker_threshold], checkpointing).  The [max_errors] budget spans
    a resume: the faults already counted in the reused shard cursors
    count toward it, at every [jobs] value, so a resume with the same
    budget aborts once the run as a whole reaches it.  [mutator] corrupts a
    deterministic subset of the corpus before delivery ([drop] delivers
    nothing for those indices instead, so a corrupt run and a drop run
    see byte-identical surviving certificates).  [resume:true] reloads
    [policy.checkpoint_file] and continues from the saved index when
    the checkpoint matches [scale] and [seed].

    With [source = Fetch cfg] the corpus is not regenerated locally:
    it is fetched page by page from [cfg.logs] simulated CT logs
    ({!Ctlog.Fetch.corpus}) — retries, backoff, rate limiting, STH
    consistency verification and split-view quarantine all happen in
    that layer, and [t.coverage] records what each log actually
    delivered.  [mutator]/[drop] corrupt the log contents before
    serving; [policy.checkpoint_file] doubles as the base path for
    per-log fetch cursors ({!Ctlog.Fetch.cursor_file}), so
    [resume:true] continues a killed fetch mid-log.  A completed fetch
    run is byte-identical across [jobs] values and reruns at the same
    seeds; an abandoned log (dead endpoint, split view) yields a
    degraded — but still completed — run, visible via
    {!coverage_degraded}.

    With [store = Some dir] the run lands in the crash-safe on-disk
    store ({!Store.Db}, DESIGN.md §11) instead of being transient:

    - a {e cold} run populates [dir] shard by shard, from either
      source (a fetch-sourced build fetches first, then lands its gaps
      in shards) — every certificate
      and its analysis row are appended to checksummed segments and the
      inventory is committed by atomic rename, so killing the process
      at any point leaves a store that {!Store.Db.recover} normalizes;
      re-running the same command resumes from the intact prefix and
      completes to the byte-identical report (the store {e is} the
      checkpoint — [policy.checkpoint_file] is ignored for the analysis
      pass, though a fetch source still uses it for transport cursors);
    - a {e warm} re-run over a complete store with the same lint set
      replays stored rows — no generation, no parsing, no linting —
      and produces the byte-identical report;
    - a re-run after the lint registry changed recomputes {e only} the
      missing lint columns from stored DER and republishes the rows
      and indexes in one atomic commit.

    Warm replay and recompute run as a single shard whatever [jobs]
    is, because the stored spans need not align with shard ranges.

    The store records its identity (scale, seed, source + mutation
    fingerprint); reusing a directory under different parameters raises
    {!Store.Db.Store_error} (binaries exit 2).  Fault records replay
    through the same boundary as live faults, so quarantine and
    robustness accounting match the cold run. *)

val collect :
  ?seed:int ->
  ?policy:Faults.Policy.t ->
  ?mutator:Faults.Mutator.plan ->
  ?drop:bool ->
  ?resume:bool ->
  ?jobs:int ->
  ?source:source ->
  scale:int ->
  count:int ->
  keep:(Ctlog.Dataset.entry -> bool) ->
  (Ctlog.Dataset.entry -> 'a) ->
  t * 'a list
(** [collect ~scale ~count ~keep f] reads the corpus from the live
    source exactly as a storeless {!run} does, through the same sharded
    driver and fault boundary, but analyzes nothing: each shard maps
    every delivered entry that passes [keep] through [f] on its own
    domain, and stops once it has kept [count] of them.  Undecodable
    deliveries are counted, quarantined and budgeted as in {!run}, so
    [policy.fail_fast] and [policy.max_errors] abort it the same way.

    Returns the aggregate — only its fault ledger, [faults.aborted] and
    [coverage] are filled — and the first [count] kept values in index
    order.  Each shard stops on its own count, so with more than one
    shard a later shard may read past the point where a single shard
    would have stopped; a caller that needs that stop exact (a fault
    ledger that ends at the [count]-th kept entry) passes [jobs = 1].
    [resume] only reaches the fetch source's transport cursors: no
    shard cursor is kept. *)

val coverage_degraded : t -> bool
(** True when a fetch-sourced run has at least one log with incomplete
    coverage (abandoned, split view, or page gaps) — reports annotate
    the result and binaries exit 4. *)

val year_range : t -> int * int
val get_year : t -> int -> year_stats
val validity_cdf : t -> validity_class -> (int * float) list
(** [(days, cumulative fraction)] points for Figure 3. *)

val top_lints : t -> (string * int) list
(** Lints ordered by NC certificate count (Table 11). *)

val top_issuers_by_nc : t -> (string * issuer_stats) list
(** Issuer organizations ordered by noncompliant certificates
    (Table 2). *)

val use_reference_engine : bool -> unit
(** Select the retained pre-fusion engine ([true]) or the fused
    fact-table engine ([false], the default) for subsequent {!run}
    calls.  Both engines must render byte-identical reports — the
    differential smoke test drives them back to back through this
    switch. *)

val lints_signature : unit -> string
(** Registry-order lint names joined with [";"] — the engine-interface
    fingerprint stores are validated against. *)

(** {2 Store-row ingest surface}

    The monitor daemon ({!page-index} unicert-monitord) ingests
    certificates incrementally: each fetched entry is analyzed once
    into a row, appended to the store in lockstep with its DER, and
    the row alone feeds the persistent indexes and the live query
    service — replaying committed rows after a restart rebuilds the
    exact same serving state. *)

type row
(** One stored analysis row: the complete deterministic projection of
    a corpus certificate (issuer, lint findings, Unicode
    classification, SAN names, subject material). *)

val analyze_entry : Ctlog.Dataset.entry -> index:int -> row
(** Run the (fused or reference) analysis engine over one delivered
    entry — the same path a full pipeline pass uses, so stored rows
    are byte-identical either way. *)

val row_index : row -> int

val row_org : row -> string
(** Issuer organization. *)

val row_nc : row -> string list
(** NC lint names, ignoring effective dates, registry order. *)

val row_domains : row -> string list
(** SAN dNSNames. *)

val row_cns : row -> string list
(** Subject CommonName values. *)

val row_attrs : row -> string list
(** Subject O/OU/emailAddress values. *)

val encode_row : row -> string
val decode_row : string -> (row, string) result
(** The rows-segment codec.  [decode_row] also accepts the pre-ingest
    8-column form (empty subject material), so stores written by
    earlier builds stay readable. *)

type index_acc
(** Accumulator for the five persistent indexes (issuer, lint, flaw,
    domain, ulabel), fed from rows alone. *)

val fresh_acc : unit -> index_acc
val add_index_entries :
  ?on_entry:(index:string -> key:string -> unit) -> index_acc -> row -> unit
(** Add one row's entries to the accumulator, deriving them (IDNA label
    conversions included) once; [on_entry] is called with each entry's
    index name and key as it is added, so a caller staging the same
    entries elsewhere need not derive them again. *)

val merge_accs : index_acc list -> (string * (string * int list) list) list
(** Merge per-shard accumulators (shard order) into named index entry
    lists ready for {!save_indexes}. *)

val save_indexes :
  Store.Db.t ->
  (string * (string * int list) list) list ->
  (string * string * string) list
(** Seal each named index into the store directory; returns manifest
    [(name, file, sha)] descriptors. *)

val store_fingerprint :
  mutator:Faults.Mutator.plan option -> drop:bool -> source:source -> string
(** The identity fingerprint a store records besides (scale, seed) —
    pass the same values a pipeline run would use so daemon-built and
    pipeline-built stores interoperate. *)
