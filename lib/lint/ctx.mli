(** Pre-parsed certificate context shared by all lints.

    This is the fused engine's fact table: the certificate is decoded
    once, and every derived fact the 95 lints consult — per-ATV code
    points, Unicode property masks, NFC results, per-DNS-name label
    checks and IDNA round-trips — is computed in that single traversal.
    Lints then run as lookups over these records. *)

type atv_info = {
  atv : X509.Dn.atv;
  cps : Unicode.Cp.t array option;
      (** strict standard decoding; [None] when the raw bytes are
          invalid for the declared string type *)
  lenient_cps : Unicode.Cp.t array;
      (** replacement decoding, always available *)
  in_issuer : bool;
}

type aval = {
  a_attr : X509.Attr.t;
  a_st : Asn1.Str_type.t;
  a_raw : string;
  a_cps : Unicode.Cp.t array;  (** lenient decoding *)
  a_mask : int;
      (** OR of {!Unicode.Props.mask} over [a_cps] — a lint tests
          class membership of the whole value with one [land] *)
  a_has_hi : bool;  (** any raw byte >= 0x80 *)
  a_nfc : bool;
      (** NFC check result; [true] for non-UTF8String values *)
}
(** Derived facts for one string-typed ATV. *)

type dns_fact = {
  d_name : string;
  d_labels : string list;
  d_dns : Idna.Dns.issue list;  (** [Idna.Dns.check d_name] *)
  d_alabels : (string * Idna.issue list) list;
      (** xn-- labels with their [Idna.alabel_issues] *)
}
(** Derived facts for one DNS name the IDN lints inspect. *)

type general_names = X509.General_name.t list

type t = {
  cert : X509.Certificate.t;
  subject : atv_info list;
  subject_vals : aval list;
  issuer_vals : aval list;
  all_vals : aval list;  (** [subject_vals @ issuer_vals], precomputed *)
  dns_facts : dns_fact list;
      (** SAN dNSNames plus DNS-shaped subject CNs, in that order *)
  san : (general_names, string) result option;
      (** [None] = extension absent; [Some (Error _)] = unparsable *)
  ian : (general_names, string) result option;
  crldp_names : (general_names, string) result option;
  aia : ((Asn1.Oid.t * X509.General_name.t) list, string) result option;
  sia : ((Asn1.Oid.t * X509.General_name.t) list, string) result option;
  policies : (X509.Extension.policy list, string) result option;
  etexts : (Asn1.Str_type.t * string) list;
      (** CertificatePolicies userNotice explicitText values *)
}

val of_cert : X509.Certificate.t -> t

val dns_names : t -> string list
(** All dNSName payloads from SAN plus the subject CN values that look
    like DNS names — the fields the IDN lints inspect. *)

val san_dns : t -> string list
(** Raw dNSName payloads from the SAN extension only. *)
