(** Arbitrary-precision natural numbers.

    A minimal from-scratch bignum sufficient for RSA: little-endian
    digit arrays in base 2{^26}.  All values are non-negative;
    subtraction of a larger number raises. *)

type t

val one : t

val of_int : int -> t
(** [of_int n] with [n >= 0]. *)

val of_bytes_be : string -> t
(** [of_bytes_be b] interprets big-endian bytes. *)

val to_bytes_be : t -> string
(** [to_bytes_be n] is the minimal big-endian representation (["\x00"]
    for zero). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val bit_length : t -> int

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]; raises [Division_by_zero] if
    [b] is zero. *)

val rem : t -> t -> t
val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Square-and-multiply modular exponentiation. *)

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [a]{^-1} mod [m] when [gcd a m = 1]. *)

val is_probable_prime : Prng.t -> t -> bool
(** Miller–Rabin with trial division by small primes and 16 witness
    rounds. *)

val random_prime : Prng.t -> int -> t
(** [random_prime g bits] searches odd candidates until
    {!is_probable_prime} accepts. *)
