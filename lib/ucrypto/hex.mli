(** The one hex codec for every text format that carries bytes: CT
    wire pages, quarantine sidecars, fuzz findings and SHA-256 digests. *)

val encode : string -> string
(** Lowercase hex, two digits per byte. *)

val decode : string -> string option
(** Inverse of {!encode}; either case is accepted.  [None] on an odd
    length or any non-hex character. *)
