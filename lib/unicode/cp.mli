(** Unicode code points represented as plain integers.

    All modules of this library manipulate code points as [int] values in
    the range [0x0000]–[0x10FFFF].  Using [int] instead of [Uchar.t]
    deliberately allows representing *invalid* scalar values (surrogates,
    out-of-range values) that arise when modelling broken decoders, which
    is the whole point of this reproduction. *)

type t = int
(** A code point.  Valid Unicode code points lie in [0 .. 0x10FFFF]. *)

val max_value : t
(** [max_value] is [0x10FFFF], the last Unicode code point. *)

val is_valid : t -> bool
(** [is_valid cp] is [true] iff [cp] is in [0 .. 0x10FFFF]. *)

val is_surrogate : t -> bool
(** [is_surrogate cp] is [true] iff [cp] is in the surrogate range
    [0xD800 .. 0xDFFF]. *)

val is_scalar : t -> bool
(** [is_scalar cp] is [true] iff [cp] is a Unicode scalar value: valid
    and not a surrogate. *)

val is_ascii : t -> bool
(** [is_ascii cp] is [true] iff [cp <= 0x7F]. *)

val is_bmp : t -> bool
(** [is_bmp cp] is [true] iff [cp <= 0xFFFF] (Basic Multilingual Plane). *)

val to_string : t -> string
(** [to_string cp] renders the code point in the conventional [U+XXXX]
    notation (at least four hex digits). *)
