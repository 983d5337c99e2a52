(** Hot-path profiling: per-span GC attribution and a top-K slow-cert
    log.  Off by default ([--profile] enables it); when off, the
    instrumented paths pay one atomic load.

    GC attribution: {!Span.with_} takes a {!gc_snapshot} around the
    body and feeds the deltas into per-span counter families —
    [unicert_gc_minor_words_total{span=...}],
    [unicert_gc_major_words_total{span=...}],
    [unicert_gc_minor_collections_total{span=...}],
    [unicert_gc_major_collections_total{span=...}] — so the exporter
    shows which stage allocates.  Deltas are clamped non-negative
    (another domain's collection can otherwise skew a quick_stat
    pair).

    Slow-cert log: the pipeline reports each certificate's total
    processing time and its most expensive stage; {!slowest} keeps the
    worst K. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

type gc_snapshot
(** [Gc.quick_stat] plus the live [Gc.minor_words] allocation pointer
    (quick_stat's own minor-word count only refreshes on a minor
    collection, which a small span may never trigger). *)

val gc_snapshot : unit -> gc_snapshot

val record_gc : ?registry:Registry.t -> string -> gc_snapshot -> unit
(** [record_gc name before] adds the [gc_snapshot () - before] deltas
    to span [name]'s GC counter families. *)

type slow = { index : int; seconds : float; stage : string }
(** A slow certificate: corpus index, end-to-end seconds, and the
    stage (decode/lint/classify/aggregate) that dominated it. *)

val set_top_k : int -> unit
(** Capacity of the slow-cert log (default 16; raises
    [Invalid_argument] below 1). *)

val note_slow : index:int -> seconds:float -> stage:string -> unit
(** Offer one certificate's timing; kept only if it beats the current
    top K.  No-op when profiling is off. *)

val slowest : unit -> slow list
(** The current top K, slowest first. *)

val reset_slow : unit -> unit
(** Empty the slow-cert log; a test hook so each test starts clean. *)

val print_top : out_channel -> unit
(** Human-readable slow-cert table; prints nothing when the log is
    empty. *)
