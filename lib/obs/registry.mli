(** The metric registry: the set of metrics an exporter walks.  Library
    code registers into {!default}; tests can build private registries
    to stay isolated from the process-wide state.

    All constructors are idempotent per registry: asking twice for the
    same name returns the same metric, so instrumented modules can
    resolve handles lazily without coordination.  Re-registering a name
    as a *different* metric kind raises [Invalid_argument] — that is
    always a bug. *)

type metric =
  | Counter of Counter.t
  | Labeled_counter of Counter.Labeled.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t
  | Labeled_histogram of Histogram.Labeled.t

type t

val create : unit -> t
val default : t

val counter : ?registry:t -> ?help:string -> string -> Counter.t
val labeled_counter :
  ?registry:t -> ?help:string -> label:string -> string -> Counter.Labeled.t
val gauge : ?registry:t -> ?help:string -> string -> Gauge.t
val histogram :
  ?registry:t -> ?help:string -> ?buckets:float array -> string -> Histogram.t
val labeled_histogram :
  ?registry:t -> ?help:string -> ?buckets:float array -> label:string ->
  string -> Histogram.Labeled.t

val metrics : t -> (string * metric) list
(** All registered metrics sorted by name (deterministic export
    order). *)

val find : t -> string -> metric option
