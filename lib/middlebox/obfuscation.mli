(** Subject-value variant strategies (Table 3) and the traffic
    obfuscation experiment (§6.2): can certificate-field variants evade
    naive string-based detection rules? *)

type strategy =
  | Case_conversion
  | Abbreviation_variation
  | Nonprintable_addition
  | Whitespace_substitution
  | Resembling_substitution
  | Illegal_replacement

val strategies : strategy list
val strategy_name : strategy -> string

val examples : strategy -> (string * string) list
(** The paper's Table 3 variant pairs for this strategy. *)

val apply : Ucrypto.Prng.t -> strategy -> string -> string
(** [apply g strategy value] produces an identity-equivalent variant of
    a subject value. *)

val is_variant_pair : string -> string -> bool
(** [is_variant_pair a b] detects whether two subject values are
    identity-equivalent variants (used to mine Table 3 from a corpus):
    equal after case folding, whitespace and invisible-character
    normalization, confusable skeletonization and NFC. *)

type evasion = {
  engine : string;
  strategy : strategy;
  evaded : bool;  (** the blocklist rule no longer matches *)
}

val evasion_matrix : ?seed:int -> unit -> evasion list
(** Block rules on the original subject O value, present the variant,
    record which engines are evaded. *)

val render : Format.formatter -> unit
