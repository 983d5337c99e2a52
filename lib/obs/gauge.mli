(** Gauges: instantaneous values that can move both ways (queue depths,
    current scale, resident set sizes). *)

type t

val make : ?help:string -> unit -> t
val set : t -> float -> unit
val value : t -> float
val help : t -> string
