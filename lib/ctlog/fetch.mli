(** Resumable paged CT-log fetch over the simulated transport.

    One session per log: trust-on-first-use STH, every refreshed STH
    verified against the previously trusted (and checkpointed) one via
    {!Merkle.verify_consistency}; entries are buffered unverified and
    delivered only once the running leaf tree reproduces a verified
    root.  Split views quarantine the unverified range as
    [Faults.Error.Integrity] and abandon the log; persistent transport
    failure trips the per-log breaker and abandons with explicit
    degraded coverage instead of aborting the run.

    Determinism: per-log virtual clock and token bucket, pure fault
    sampling, and contiguous per-log corpus ranges joined in log order
    — a completed fetch is byte-identical across reruns and [--jobs]
    values at the same seeds. *)

type cfg = {
  logs : int;                     (** corpus is partitioned across this many logs *)
  net_seed : int option;          (** fault-plan seed; [None] derives from corpus seed *)
  fault_rate : float;
  fault_kinds : Net.Fault.kind list;
  flap_rate : float;
  down : string list;             (** permanently dead logs (by name) *)
  page_cap : int;
  policy : Net.Policy.t;
  rate_per_sec : float;
  burst : float;
  sth_every : int;                (** pages between mid-window STH tripwires *)
  breaker_threshold : int;
  breaker_cooldown : float;       (** virtual seconds before a half-open probe *)
  max_trips : int;                (** breaker trips before the log is abandoned *)
  equivocate : (string * int * int) list;
      (** (log name, at_request, leaf to flip): chaos hook for split views *)
}

val default_cfg : cfg
(** 16 logs, clean transport, page cap 64, default policy, 200 req/s
    bucket, STH tripwire every 8 pages, 30 s breaker cooldown, 3-trip
    abandonment. *)

val log_name : int -> string
(** ["log-00"], ["log-01"], ... *)

type item =
  | Got of int * Dataset.entry
      (** (corpus index, entry rebuilt from the fetched DER) *)
  | Undecodable of int * string * Faults.Error.t
      (** (corpus index, DER, error) — undecodable bytes or
          integrity-flagged provenance; routed to quarantine *)

val item_index : item -> int

type coverage = {
  log : string;
  expected : int;
  delivered : int;
  quarantined : int;
  spans : (int * int) list;  (** inclusive corpus-index ranges covered *)
  page_gaps : int;
  abandoned : string option;
  split_view : bool;
  requests : int;
  retries : int;
}

val coverage_complete : coverage -> bool

type session = {
  s_raw : (int * string) list;
  s_quar : (int * string * Faults.Error.t) list;
  s_cov : coverage;
}
(** One log session: the raw DER delivered and the entries quarantined
    since the feed's previous session (everything, for a session of
    {!corpus}), each with its corpus index and newest first (descending
    index); and the log's cumulative coverage. *)

type delivery =
  | Der of int * string  (** (corpus index, delivered DER), not yet parsed *)
  | Flagged of int * string * Faults.Error.t
      (** (corpus index, DER, error) — integrity-flagged at fetch time *)

val delivery_index : delivery -> int

val deliveries : ?from:int -> session -> delivery list
(** One session's delivered + quarantined streams merged back into a
    single ascending stream.  With [from], only those at corpus index
    [from] or later — the others are not walked. *)

val decode : delivery -> item
(** Parse a delivered DER into its entry ({!Undecodable} when it does
    not parse or {!Dataset.entry_of_cert} refuses it); a flagged
    delivery stays {!Undecodable} with its error. *)

val cursor_file : string -> int -> string
(** [cursor_file base k] is [base.fetch<k>] — the per-log checkpoint
    path used by {!corpus} under a [--checkpoint] base path.  It is a
    journaled checkpoint ({!Faults.Checkpoint.save_journaled}): a small
    header plus [base.fetch<k>.journal], to which each save appends
    only the rows fetched and the windows resolved since the previous
    one. *)

val corpus :
  ?scale:int ->
  seed:int ->
  ?mutator:Faults.Mutator.plan ->
  ?drop:bool ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?stop_after_pages:int ->
  ?jobs:int ->
  cfg ->
  delivery list * coverage list
(** Partition the corpus across [cfg.logs] simulated logs (contiguous
    index ranges), populate each log (the corruption [mutator] and
    [drop] compose exactly as in the generate source), fetch every log
    over its own clock/transport/bucket, and join the streams in log
    order — deliveries arrive globally ascending by corpus index, and
    the caller {!decode}s each when it needs it.  [jobs]
    fetches logs on parallel domains; results are independent of it.
    [stop_after_pages] interrupts each log's session after that many
    pages (cursor saved) — the resume-after-kill test hook. *)

val prewarm : unit -> unit
(** Force every lazy handle the fetch path touches.  Called internally
    by {!corpus} before spawning; exposed for {!feeds}/{!poll}
    users. *)

(** {2 Long-lived feeds (the monitor daemon)}

    A feed keeps one log's whole fetch apparatus alive between polls:
    the populated log and its paged server, the per-log virtual clock,
    transport and token bucket, and the session state (trusted STH,
    pending window, delivery counts and coverage).  The cursor file carries
    that state across process restarts; it is read once per feed, and
    between polls the last saved cursor stays in memory.  The server starts with
    nothing published; the driver grows the published head with
    {!feed_publish} and each {!poll} runs the same session {!corpus}
    runs per log against it — STH refresh, consistency verification against
    the trusted head, split-view quarantine and breaker behaviour all
    identical to a one-shot fetch.

    Restart protocol: the trusted STH in the cursor outlives the
    in-memory server, so after recreating feeds the driver must
    republish each log to at least {!feed_trusted} before polling —
    a smaller published head reads as a shrinking tree, which is
    (correctly) treated as a split view. *)

type feed

val feeds :
  ?mutator:Faults.Mutator.plan ->
  ?drop:bool ->
  checkpoint:string ->
  scale:int ->
  seed:int ->
  cfg ->
  feed list
(** Partition the corpus across [cfg.logs] simulated logs exactly as
    {!corpus} does (same contiguous ranges, same content under the
    same [mutator]/[drop]/[seed]) and return one feed per log, each
    with nothing published yet.  [checkpoint] is the cursor base path
    ({!cursor_file} per log). *)

val feed_range : feed -> int * int
(** The contiguous corpus-index range [(lo, hi)) this log carries. *)

val feed_goal : feed -> int
(** Total entries this log will eventually publish. *)

val feed_published : feed -> int

val feed_publish : feed -> int -> unit
(** Raise the published head to [n] (clamped to {!feed_goal};
    never lowers). *)

val feed_trusted : feed -> int option
(** The tree size of the cursor's verified STH, when a matching cursor
    file exists — the minimum the driver must republish to before
    polling after a restart. *)

val poll : ?stop_after_pages:int -> feed -> session
(** Run one fetch session against the currently published head,
    resuming from the feed's last saved cursor and saving it at the
    same points a one-shot {!corpus} fetch does.  The session hands
    over what was delivered or quarantined since the feed's previous
    poll, and the feed drops that DER: between polls it keeps only the
    running leaf tree, the pending (unverified) window, counts and
    coverage spans.  The first poll after the cursor file is read
    hands over everything the file's journal replays, so a restarted
    caller can re-stage from its own watermark.  A poll's own cost
    grows with the entries it fetches, not with the history. *)

val items_of_session : ?from:int -> session -> item list
(** {!deliveries} with each one {!decode}d. *)
