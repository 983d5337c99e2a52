(** Certificate revocation lists (RFC 5280 §5): the substrate behind
    the paper's CRL-spoofing threat (§5.2 impact 2), where a lenient
    parser rewrites a CRLDistributionPoints location and a strict
    revocation-checking client silently fetches the wrong list.  With
    {!Ocsp} and {!Chain} it backs README's reproduced "PyOpenSSL CRLDP
    → CRL spoofing" row, which the test suite exercises end to end. *)

type revoked_entry = {
  serial : string;             (** INTEGER content octets *)
  revocation_date : Asn1.Time.t;
}

type tbs = {
  issuer : Dn.t;
  this_update : Asn1.Time.t;
  next_update : Asn1.Time.t option;
  revoked : revoked_entry list;
}

type t = {
  tbs : tbs;
  tbs_der : string;
  signature : string;
  der : string;
}

val make :
  issuer:Dn.t ->
  this_update:Asn1.Time.t ->
  ?next_update:Asn1.Time.t ->
  revoked:revoked_entry list ->
  Certificate.keypair ->
  t
(** [make ~issuer ~this_update ~revoked key] builds and signs a CRL. *)

val parse : string -> (t, string) result
val to_pem : t -> string
val of_pem : string -> (t, string) result

val verify : issuer_spki:Certificate.spki -> t -> bool

val is_revoked : t -> string -> bool
(** [is_revoked crl serial] checks membership by serial content
    octets. *)

(** {1 Distribution and checking} *)

module Store : sig
  (** An in-memory CRL distribution substrate: URLs map to published
      CRLs, standing in for the HTTP fetch of a real deployment. *)

  type store

  val create : unit -> store
  val publish : store -> url:string -> t -> unit
end

type status = Good | Revoked | Unavailable of string

val check_revocation :
  ?rewrite_location:(string -> string) ->
  store:Store.store ->
  issuer_spki:Certificate.spki ->
  Certificate.t ->
  status
(** [check_revocation ~store ~issuer_spki cert] extracts the first
    CRLDP URI, fetches, verifies the CRL signature, and looks the
    certificate's serial up.  [rewrite_location] models a lenient
    parser's transformation of the location string (e.g. PyOpenSSL's
    control-character-to-dot rewrite): when the rewritten URL misses
    the store, revocation silently degrades to [Unavailable]. *)
