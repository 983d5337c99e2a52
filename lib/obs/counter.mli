(** Monotonically increasing counters (Prometheus semantics: a float
    that only ever grows).  Updates are atomic ([inc] is one
    fetch-and-add, [add] a CAS loop), so counters stay exact when
    several pipeline domains share one handle. *)

type t

val make : ?help:string -> unit -> t
(** [make ()] creates an unregistered counter — use
    {!Registry.counter} to create-and-register in one step. *)

val inc : t -> unit
(** Add 1. *)

val add : t -> float -> unit
(** Add a non-negative amount.  @raise Invalid_argument on a negative
    increment — counters never go down. *)

val value : t -> float
val help : t -> string

val reset : t -> unit
(** Zero the counter (test support only). *)

(** A counter family keyed by one label, e.g. per-lint or per-flaw
    counts.  Children are created on first use; [get] is a single
    hashtable probe, so hot paths should cache the child handle. *)
module Labeled : sig
  type counter := t
  type t

  val make : ?help:string -> label:string -> unit -> t
  val get : t -> string -> counter
  (** [get family v] returns the child for label value [v], creating it
      on first use. *)

  val children : t -> (string * counter) list
  (** [(label value, child)] pairs sorted by label value. *)

  val help : t -> string
  val label : t -> string
end
