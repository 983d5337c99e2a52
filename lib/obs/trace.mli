(** Structured tracing: ring-buffered timeline events exported in the
    Chrome [trace_event] JSON format (load the file in Perfetto or
    chrome://tracing) or as compact JSONL for diffing.

    Tracing is process-global and off by default; every emitter is a
    single atomic load when disabled, so instrumented hot paths cost
    nothing until [enable] is called.  Events land in a fixed-size
    ring buffer (oldest evicted first) guarded by one mutex —
    correctness over micro-optimisation; the default sampling of
    per-lint / per-model spans keeps the push rate low enough that
    contention is irrelevant (DESIGN.md §10).

    The event [tid] is the emitting domain's id, so worker-domain
    spans render as separate tracks alongside {!Span} stage spans
    (which emit Begin/End pairs here when tracing is on). *)

type arg = Str of string | Int of int | Float of float | Bool of bool

type phase =
  | Begin  (** "B": opens a duration slice on this domain's track *)
  | End  (** "E": closes the innermost open slice *)
  | Instant  (** "i": a point event (breaker trip, hedge outcome...) *)

type event = {
  name : string;
  cat : string;  (** category: "stage", "par", "net", "fetch", "lint", ... *)
  ph : phase;
  ts : float;  (** microseconds since [enable] *)
  tid : int;  (** emitting domain id *)
  args : (string * arg) list;
}

val default_ring : int
(** Default ring capacity, [262144] events. *)

val default_sample : int
(** Default sampling period for {!sampled_span}, [16]. *)

val enable : ?ring:int -> ?sample:int -> ?file:string -> unit -> unit
(** Start tracing into a fresh ring of [ring] events (default
    {!default_ring}, min 16).  [sample] is the {!sampled_span} period
    (default {!default_sample}; 1 traces every invocation).  When
    [file] is given, {!flush} — also registered via [at_exit] —
    writes the buffer there: Chrome JSON, or JSONL when the name ends
    in [.jsonl].  Raises [Invalid_argument] on a ring < 16 or sample
    < 1. *)

val disable : unit -> unit
(** Stop tracing and drop the buffer (without flushing). *)

val enabled : unit -> bool
val dropped : unit -> int
(** Events evicted from the ring since [enable]. *)

val emit_begin : ?args:(string * arg) list -> cat:string -> string -> unit
val emit_end : ?args:(string * arg) list -> cat:string -> string -> unit
val instant : ?args:(string * arg) list -> cat:string -> string -> unit

val span : ?args:(string * arg) list -> cat:string -> string -> (unit -> 'a) -> 'a
(** [span ~cat name f] brackets [f] in a Begin/End pair (the End is
    emitted even when [f] raises).  No-op when tracing is off. *)

val sampled_span :
  ?args:(string * arg) list -> cat:string -> string -> (unit -> 'a) -> 'a
(** Like {!span}, but only every [sample]-th call per domain actually
    emits — the rate limiter for per-lint / per-parser-model spans
    whose call counts dwarf the pipeline stages. *)

val sample_hit : int -> bool
(** [sample_hit tick] is true when tracing is on and [tick] lands on
    the sampling period — for call sites that already maintain an
    invocation counter and want to skip {!sampled_span}'s per-domain
    tick on a very hot path.  Wrap the body in {!span} on a hit. *)

val snapshot : unit -> event list
(** The buffered events in emission order, repaired to keep Begin/End
    pairing balanced per domain track: an End whose Begin was evicted
    is dropped, and a Begin still open at snapshot time is closed by
    a synthetic End at the latest buffered timestamp. *)

val to_chrome : event list -> string
(** Chrome [trace_event] JSON: [{"traceEvents": [...],
    "displayTimeUnit": "ms"}]. *)

val to_jsonl : event list -> string
(** One event object per line, same schema as the Chrome array
    elements. *)

val flush : unit -> unit
(** Write {!snapshot} to the [enable]-time [file], if any and if
    anything new was recorded since the last flush.  Raises
    [Sys_error] when the file cannot be written. *)
