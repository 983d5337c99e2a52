(** Low-level DER serialization primitives.

    Every function returns the complete TLV byte string.  Only
    single-byte tags are needed for X.509 (universal and context tag
    numbers up to 30). *)

val definite_length : int -> string
(** [definite_length n] is the DER length octets for content length [n]. *)

val integer_bytes : string -> string
(** [integer_bytes b] wraps raw big-endian content octets as INTEGER,
    inserting a leading zero if the sign bit would flip. *)

val sequence : string list -> string
(** [sequence parts] concatenates already-encoded elements. *)
