(** The ASN.1 string types used in X.509 certificates (Table 8 of the
    paper), with their universal tags, standard decodings, and character
    repertoires. *)

type t =
  | Utf8_string        (** tag 12 — UTF-8, full Unicode. *)
  | Numeric_string     (** tag 18 — digits and space. *)
  | Printable_string   (** tag 19 — restricted ASCII subset. *)
  | Teletex_string     (** tag 20 — T.61 (modelled as Latin-ish). *)
  | Ia5_string         (** tag 22 — 7-bit International Alphabet 5. *)
  | Visible_string     (** tag 26 — printable ASCII. *)
  | Universal_string   (** tag 28 — UCS-4. *)
  | Bmp_string         (** tag 30 — UCS-2 (Basic Multilingual Plane). *)

val all : t list
(** [all] lists every string type, in tag order. *)

val tag : t -> int
(** [tag st] is the ASN.1 universal tag number. *)

val of_tag : int -> t option
(** [of_tag n] is the string type with universal tag [n], if any. *)

val name : t -> string
(** [name st] is the standard name, e.g. ["PrintableString"]. *)

val of_name : string -> t option
(** [of_name s] inverts {!name} (case-sensitive). *)

val standard_encoding : t -> Unicode.Codec.encoding
(** [standard_encoding st] is the byte encoding the standard prescribes
    for values of this type (UTF-8 for UTF8String, ASCII for
    PrintableString/IA5String/..., UCS-2 for BMPString, UCS-4 for
    UniversalString, Latin-1 as the pragmatic T.61 model). *)

val allows : t -> Unicode.Cp.t -> bool
(** [allows st cp] is [true] iff the code point is inside the type's
    standard repertoire. *)

val encode_value : t -> Unicode.Cp.t array -> (string, string) result
(** [encode_value st cps] serializes code points into content octets
    using {!standard_encoding} {e without} repertoire checks (a CA with
    weak validation can put anything in any string type — that is the
    paper's T1/T3 issue).  Fails only if the encoding physically cannot
    represent a code point. *)

val decode_value : t -> string -> (Unicode.Cp.t array, string) result
(** [decode_value st bytes] decodes content octets with the standard
    encoding, strictly. *)
