(** CRC-32 (IEEE 802.3 polynomial, reflected) over strings.

    Used for per-record integrity framing in {!Segment}: cheap enough
    to verify on every read, strong enough to catch the bit flips and
    torn writes {!Chaos} injects.  Values are returned masked to 32
    bits in a native [int].

    The checksum runs in a portable slicing-by-8 C kernel
    ([crc32_stubs.c]) that folds eight bytes per step; its tables are
    filled once, when this module initialises.  Values are the
    standard ones ([string "123456789" = 0xCBF43926]) and must stay
    so: every stored segment carries them. *)

val string : string -> int
(** [string s] is the CRC-32 of all of [s]. *)

val sub : string -> pos:int -> len:int -> int
(** CRC-32 of [len] bytes of [s] starting at [pos].
    @raise Invalid_argument on a range outside [s]. *)
