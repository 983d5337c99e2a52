(** Wall-clock spans.  [with_ "lint" f] times [f] and feeds the
    duration into the per-span histogram family
    [unicert_span_seconds{span="lint"}] of the target registry.  Spans
    nest freely (a stack tracks the active path, see {!current}); the
    duration is recorded even when [f] raises.

    When {!Trace} is enabled each span additionally emits a
    Begin/End pair (category ["stage"]) on the emitting domain's
    trace track; when {!Profile} is enabled the GC work inside the
    span is attributed to its name. *)

type t
(** A declared span: a name and its target registry.  Its histogram
    child is resolved on first use and kept, so a span run once per
    certificate pays no registry or family lookup. *)

val v : ?registry:Registry.t -> string -> t
(** [v name] declares a span.  Nothing is registered until it runs. *)

val run : t -> (unit -> 'a) -> 'a
(** [run span f] times [f] under [span]. *)

val with_ : ?registry:Registry.t -> string -> (unit -> 'a) -> 'a
(** [with_ name f] is [run (v name) f], for spans run too rarely to be
    worth declaring. *)

val current : unit -> string list
(** The active span stack, innermost first.  Empty outside any span. *)

val sum : ?registry:Registry.t -> string -> float
(** Accumulated wall-clock seconds recorded for a span name so far
    (0. if the span never ran). *)

val count : ?registry:Registry.t -> string -> int
(** Number of completed executions of a span name. *)
