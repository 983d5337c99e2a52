(** Fixed-bucket histograms with Prometheus [le] (less-or-equal)
    semantics: an observation lands in the first bucket whose upper
    bound is >= the value, so a value exactly on an edge belongs to
    that edge's bucket.  Sum and count are tracked alongside, which is
    all a latency distribution needs. *)

type t

val log_buckets : base:float -> factor:float -> count:int -> float array
(** [log_buckets ~base ~factor ~count] returns [count] strictly
    increasing upper bounds [base, base*factor, base*factor^2, ...].
    @raise Invalid_argument if [base <= 0.], [factor <= 1.] or
    [count < 1]. *)

val make : ?help:string -> ?buckets:float array -> unit -> t
(** [make ()] uses latency buckets from 1µs to ~67s in powers of 4
    unless [buckets] (strictly increasing upper bounds) is given. *)

val observe : t -> float -> unit

val sum : t -> float
val count : t -> int
val help : t -> string

val cumulative : t -> (float * int) list
(** Per-bound cumulative counts in [le] form, excluding the implicit
    [+Inf] bucket (whose cumulative count is {!count}). *)

(** A histogram family keyed by one label (per-span latencies, per
    parser-model decode times). *)
module Labeled : sig
  type histogram := t
  type t

  val make : ?help:string -> ?buckets:float array -> label:string -> unit -> t
  val get : t -> string -> histogram
  val children : t -> (string * histogram) list
  val help : t -> string
  val label : t -> string
end
