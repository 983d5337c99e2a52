(** Deterministic pseudo-random generator (splitmix64).

    Every generator in the repository (corpus, test Unicerts, property
    tests) draws from a seeded [Prng.t] so experiments are exactly
    reproducible. *)

type t

val create : int -> t
(** [create seed] builds an independent stream. *)

val of_pair : int -> int -> t
(** [of_pair seed index] builds the stream owned by position [index] of
    run [seed]: a pure function of the pair, statistically independent
    across indices.  This is what makes corpus generation shardable —
    any index range regenerates exactly the entries a full sequential
    pass would produce. *)

val bits64 : t -> int64
(** [bits64 g] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [0 .. bound-1]; [bound] must be
    positive. *)

val float : t -> float
(** [float g] is uniform in [0.0, 1.0). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** [pick g arr] is a uniformly chosen element; [arr] must be
    non-empty. *)

val pick_list : t -> 'a list -> 'a

val weighted : t -> ('a * float) list -> 'a
(** [weighted g choices] samples proportionally to the weights (which
    need not sum to 1). *)

val bytes : t -> int -> string
(** [bytes g n] is [n] pseudo-random bytes. *)
