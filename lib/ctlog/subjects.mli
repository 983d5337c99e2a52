(** Pools of realistic subject material for the corpus generator:
    multilingual organization names (modelled on the paper's Table 3
    examples), IDN U-labels across scripts, and ASCII base domains. *)

val unicode_orgs : (string * string) array
(** [(organization name, country code)] pairs with non-ASCII content. *)

val ascii_orgs : (string * string) array

val localities : string array
(** Locality names, several with diacritics (e.g. "Île-de-France"). *)

val random_idn_domain : Ucrypto.Prng.t -> string
(** A syntactically valid IDN domain: A-label + ASCII registrable
    suffix. *)

val random_ascii_domain : Ucrypto.Prng.t -> string
