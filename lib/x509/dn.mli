(** Distinguished names: RDNSequence structure, construction, DER
    mapping, and the three standard string representations (RFC 1779,
    RFC 2253, RFC 4514) with their distinct escaping rules.

    Attribute values keep their raw content octets and declared ASN.1
    string type, so noncompliant encodings survive round trips and are
    visible to the linter and the parser models. *)

type atv = { typ : Attr.t; value : Asn1.Value.t }
(** One AttributeTypeAndValue.  [value] is normally [Str (st, raw)]. *)

type rdn = atv list
(** A RelativeDistinguishedName: a SET of one or more ATVs. *)

type t = rdn list
(** An RDNSequence, in encoding order. *)

val empty : t

val atv : ?st:Asn1.Str_type.t -> Attr.t -> string -> atv
(** [atv a text] builds an ATV from UTF-8 [text].  Default string type:
    [PrintableString] when the text fits its repertoire, otherwise
    [UTF8String] — the normal CA behaviour. *)

val atv_raw : st:Asn1.Str_type.t -> Attr.t -> string -> atv
(** [atv_raw ~st a bytes] stores [bytes] verbatim under the declared
    type — the vehicle for noncompliant values. *)

val single : atv list -> t
(** [single atvs] builds a DN with one single-ATV RDN per attribute (the
    common layout). *)

val of_list : (Attr.t * string) list -> t
(** [of_list pairs] is [single (List.map (fun (a,v) -> atv a v) pairs)]. *)

val atv_text : atv -> string
(** [atv_text v] decodes the value with its declared type's standard
    encoding, replacing undecodable bytes with U+FFFD; non-string
    values render via {!Asn1.Value.pp}. *)

val all_atvs : t -> atv list
(** [all_atvs dn] flattens in encoding order. *)

val get : t -> Attr.t -> atv list
(** [get dn a] is every ATV of type [a], in order. *)

val get_text : t -> Attr.t -> string list
(** [get_text dn a] is [List.map atv_text (get dn a)]. *)

val first : t -> Attr.t -> atv option

val to_value : t -> Asn1.Value.t
(** [to_value dn] is the RDNSequence as an ASN.1 value (SETs emitted in
    the given order). *)

val of_value : Asn1.Value.t -> (t, string) result
(** [of_value v] parses an RDNSequence value tree. *)

val encode : t -> string
val decode : string -> (t, string) result

type flavor = Rfc1779 | Rfc2253 | Rfc4514

val to_string : ?flavor:flavor -> t -> string
(** [to_string dn] renders per the chosen RFC (default [Rfc4514]):
    RFC 2253/4514 render in reverse order with [,] separators and
    backslash escaping; RFC 1779 uses [", "] separators and quoting.
    These are the *reference* implementations the parser models are
    diffed against. *)

val of_string : string -> (t, string) result
(** [of_string s] parses an RFC 4514 string representation back into a
    DN: comma-separated RDNs in reverse order, [+]-joined ATVs,
    attribute short names or dotted OIDs, backslash escapes (special
    characters and [\XX] hex pairs) and [#hex] values.  Values become
    UTF8String ATVs.  This is the inverse of {!to_string} for the
    [Rfc4514] flavor (up to string-type normalization). *)

val escape_value : flavor -> string -> string
(** [escape_value flavor text] is the escaped (RFC 2253/4514) or quoted
    (RFC 1779) attribute-value form used by {!to_string} — exposed so
    the differential harness can check library escaping against the
    reference. *)

val equal_normalized : t -> t -> bool
(** [equal_normalized a b] implements the RFC 5280 §7.1 comparison
    model: decode values, NFC-normalize, case-fold ASCII, collapse
    internal whitespace, then compare structurally. *)
