(** X.509 v3 extensions: the generic envelope plus typed codecs for the
    extensions the paper's experiments exercise (SAN, IAN, AIA, SIA,
    CRLDistributionPoints, CertificatePolicies, BasicConstraints,
    KeyUsage, and the CT poison/SCT extensions). *)

type t = { oid : Asn1.Oid.t; critical : bool; value : string }
(** [value] is the DER inside the extnValue OCTET STRING. *)

(** Well-known extension OIDs. *)
module Oids : sig
  val subject_alt_name : Asn1.Oid.t
  val issuer_alt_name : Asn1.Oid.t
  val crl_distribution_points : Asn1.Oid.t
  val certificate_policies : Asn1.Oid.t
  val basic_constraints : Asn1.Oid.t
  val authority_info_access : Asn1.Oid.t
  val subject_info_access : Asn1.Oid.t
  val name_constraints : Asn1.Oid.t
  val ct_poison : Asn1.Oid.t
  val sct_list : Asn1.Oid.t

  val ocsp : Asn1.Oid.t
  (** AIA accessMethod id-ad-ocsp. *)

  val ca_issuers : Asn1.Oid.t
  (** AIA accessMethod id-ad-caIssuers. *)
end

val find : t list -> Asn1.Oid.t -> t option

(** {1 Typed constructors} *)

val subject_alt_name : ?critical:bool -> General_name.t list -> t
val issuer_alt_name : General_name.t list -> t
val crl_distribution_points : General_name.t list -> t
(** Each GeneralName becomes one DistributionPoint with a fullName. *)

val authority_info_access : (Asn1.Oid.t * General_name.t) list -> t
val subject_info_access : (Asn1.Oid.t * General_name.t) list -> t

type user_notice = { explicit_text : Asn1.Value.t option }
type policy = { policy_oid : Asn1.Oid.t; notice : user_notice option }

val certificate_policies : policy list -> t
val basic_constraints : ?ca:bool -> ?path_len:int -> unit -> t
val key_usage : int -> t
(** [key_usage bits] packs the KeyUsage bit string (bit 0 is
    digitalSignature). *)

val name_constraints :
  ?permitted:General_name.t list -> ?excluded:General_name.t list -> unit -> t
(** NameConstraints (RFC 5280 §4.2.1.10) with dNSName subtrees — the
    check that the paper's subfield-forgery threat (§5.2, CVE-2021-44533)
    bypasses in string-based implementations. *)

val parse_name_constraints :
  string -> (General_name.t list * General_name.t list, string) result
(** [(permitted, excluded)] subtree bases. *)

val ct_poison : t
(** The critical precertificate poison extension (RFC 6962 §3.1). *)

val sct_list : string -> t
(** [sct_list payload] embeds an opaque SCT list. *)

(** {1 Typed parsers} *)

val parse_general_names : string -> (General_name.t list, string) result
(** [parse_general_names der] parses a GeneralNames SEQUENCE (SAN/IAN
    layout). *)

val parse_crl_distribution_points : string -> (General_name.t list, string) result
val parse_info_access : string -> ((Asn1.Oid.t * General_name.t) list, string) result
val parse_certificate_policies : string -> (policy list, string) result

val to_value : t -> Asn1.Value.t
val of_value : Asn1.Value.t -> (t, string) result
