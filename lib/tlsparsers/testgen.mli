(** Test-Unicert generation following the paper's §3.2 rules: one RDN
    per DN, one attribute per RDN, one mutated field per certificate,
    all other fields at standard-compliant defaults. *)

type mutation =
  | Subject_attr of X509.Attr.t * Asn1.Str_type.t * string
      (** declared type + raw content octets *)
  | San_dns of string
  | San_rfc822 of string
  | San_uri of string
  | Crldp_uri of string

val make : mutation -> X509.Certificate.t
(** [make m] is a signed test certificate whose only non-default field
    is the mutated one ("test.com" defaults elsewhere). *)

val byte_battery : string list
(** The probe payloads used for decoding inference: ASCII, UTF-8,
    Latin-1, control bytes, UCS-2, surrogate pairs, overlong UTF-8. *)

val raw_subject_attr : X509.Certificate.t -> X509.Attr.t -> (Asn1.Str_type.t * string) option
(** Pull the declared type and raw octets of a subject attribute back
    out of a parsed certificate. *)

val raw_san_payloads : X509.Certificate.t -> string list
val raw_crldp_payloads : X509.Certificate.t -> string list
