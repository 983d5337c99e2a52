(** The behavioural model of a TLS library's certificate parsing
    surface — the replacement for the nine third-party libraries the
    paper tests (DESIGN.md substitution table).

    Each model reproduces that library's *documented* decoding and
    escaping behaviour for the APIs of Tables 12/13.  The differential
    harness treats models as black boxes and infers their behaviour the
    same way the paper does (§3.2). *)

type field = Subject_dn | San | Ian | Aia | Sia | Crldp

val field_name : field -> string

type t = {
  name : string;
  supports : field -> bool;
  decode_name_attr : Asn1.Str_type.t -> string -> string option;
      (** decode one DN attribute value (raw content octets) to the
          UTF-8 text the library would hand the application; [None]
          models a parse failure/exception *)
  decode_gn : field -> string -> string option;
      (** decode an IA5-typed GeneralName payload in the given field *)
  dn_to_string : X509.Dn.t -> string option;
      (** the library's X.509-text DN representation; [None] when the
          API returns structured data instead of a string *)
  gns_to_string : X509.General_name.t list -> string option;
      (** the library's text rendering of a GeneralNames list *)
  escaping_claim : [ `Rfc1779 | `Rfc2253 | `Rfc4514 ] list;
      (** the escaping standards the library documents for
          [dn_to_string] (empty when no string form exists) *)
}

(** {1 Decoder building blocks shared by the models} *)

val ascii_strict : string -> string option
(** [ascii_strict], {!latin1} and {!utf8_strict} return an all-ASCII
    input itself, the same bytes the codec round trip produces. *)

val ascii_hex_escape : string -> string
(** OpenSSL-style: bytes above printable ASCII become [\xNN]. *)

val ascii_replace : Unicode.Cp.t -> string -> string
(** Byte-wise with replacement for bytes above 0x7F. *)

val latin1 : string -> string
val utf8_strict : string -> string option
val utf8_replace : string -> string
val ucs2_ascii_bytewise : Unicode.Cp.t -> string -> string
(** Reads a UCS-2 payload one byte at a time as ASCII — the
    incompatible decoding behind the paper's "githube.cn" example. *)

val ucs2 : string -> string option
val utf16 : string -> string option
