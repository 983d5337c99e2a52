(** The one hex codec for every text format that carries bytes: CT
    wire pages, quarantine sidecars, fuzz findings and SHA-256 digests. *)

val encode : string -> string
(** Lowercase hex, two digits per byte. *)

val decode : string -> string option
(** Inverse of {!encode}; either case is accepted.  [None] on an odd
    length or any non-hex character. *)

val decode_from : string -> pos:int -> string option
(** [decode_from s ~pos] is [decode (String.sub s pos (String.length s - pos))]
    without the copy.
    @raise Invalid_argument when [pos] is outside [0, String.length s]. *)
