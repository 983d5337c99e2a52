(** Line-based wire format shared by {!Server} and {!Fetch}: payload
    lines sealed with a trailing ["end <sha256-hex>"] integrity line.
    The checksum is what separates torn pages (transport truncation /
    bit flips — retryable) from well-formed bodies carrying bad content
    (corrupt DER — quarantinable). *)

val to_hex : string -> string
val of_hex : string -> string option

val seal : string list -> string
(** Join the lines and append the integrity trailer. *)

val open_ : string -> string list option
(** Validate the trailer; [Some lines] (payload only) or [None] for a
    torn body. *)
