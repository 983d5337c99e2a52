(** X.509 v3 certificates: construction, signing, DER encoding and
    parsing, and signature verification.

    Two signature schemes are supported (see DESIGN.md): real RSA
    (PKCS#1 v1.5 / SHA-256, from scratch in [ucrypto]) used by the
    chain-verification experiments, and a deterministic keyed-hash mock
    scheme used for bulk corpus generation where per-certificate RSA
    would dominate runtime.  Both bind the signature to the exact TBS
    bytes, so tampering is detected either way. *)

type time_form = Utc | Generalized

type spki = { alg : Asn1.Oid.t; key : string }
(** SubjectPublicKeyInfo: algorithm OID and raw subjectPublicKey
    payload. *)

type tbs = {
  version : int;  (** 0 = v1, 2 = v3 *)
  serial : string;  (** INTEGER content octets *)
  sig_alg : Asn1.Oid.t;
  issuer : Dn.t;
  not_before : Asn1.Time.t * time_form;
  not_after : Asn1.Time.t * time_form;
  subject : Dn.t;
  spki : spki;
  extensions : Extension.t list;
}

type t = {
  tbs : tbs;
  tbs_der : string;  (** exact bytes covered by the signature *)
  signature : string;
  der : string;  (** the full certificate encoding *)
}

module Oids : sig
  val sha256_with_rsa : Asn1.Oid.t
  val mock_signature : Asn1.Oid.t
end

(** {1 Keys and signing} *)

type keypair
(** An issuing key: public SPKI plus signing capability. *)

val mock_keypair : ?signer:bool -> seed:string -> unit -> keypair
(** [mock_keypair ~seed] derives a deterministic keyed-hash signer.
    [~signer:true] additionally precomputes the HMAC pad midstates —
    worthwhile for keys that sign many messages (issuers, CT logs);
    signatures are byte-identical either way. *)

val rsa_keypair : Ucrypto.Rsa.key -> keypair
val keypair_spki : keypair -> spki

val make_tbs :
  ?version:int ->
  ?serial:string ->
  ?extensions:Extension.t list ->
  issuer:Dn.t ->
  subject:Dn.t ->
  not_before:Asn1.Time.t ->
  not_after:Asn1.Time.t ->
  ?not_before_form:time_form ->
  ?not_after_form:time_form ->
  spki:spki ->
  sig_alg:Asn1.Oid.t ->
  unit ->
  tbs
(** [make_tbs] assembles a TBSCertificate (defaults: v3, serial 1,
    UTCTime before 2050). *)

val sign : keypair -> tbs -> t
(** [sign issuer_key tbs] encodes and signs. *)

val encode_tbs : tbs -> string

(** {1 Parsing and verification} *)

val parse : ?config:Asn1.Value.config -> string -> (t, Faults.Error.t) result
(** [parse der] decodes a certificate.  The TBS byte span is taken from
    the input, so verification works even when re-encoding would
    differ.  Failures are typed [Faults.Error.Decode_error]s: DER-level
    errors carry the reader's byte offset, certificate-layout errors
    carry [None]. *)

val of_pem : string -> (t, Faults.Error.t) result
val to_pem : t -> string

val verify : issuer_spki:spki -> t -> bool
(** [verify ~issuer_spki cert] checks the signature over [tbs_der]. *)

val raw_signature : keypair -> string -> string
(** [raw_signature key bytes] signs arbitrary bytes with the keypair's
    scheme — used by the CRL layer. *)

val verify_raw : issuer_spki:spki -> message:string -> signature:string -> bool
(** Signature check over arbitrary bytes (certificates, CRLs). *)

val self_spki : t -> spki
(** [self_spki cert] is the certificate's own SPKI (for verifying its
    children). *)

val validity_days : t -> int
(** [validity_days cert] is the notBefore→notAfter span in days. *)

val is_valid_at : t -> Asn1.Time.t -> bool
val is_precertificate : t -> bool
(** CT poison extension present. *)

val subject_cn : t -> string option
(** First Subject commonName, decoded leniently. *)

val san_dns_names : t -> string list
(** Raw dNSName payloads from the SAN extension ([] when absent or
    unparsable). *)
