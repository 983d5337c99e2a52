(** Certification-path building and verification (RFC 5280 §6,
    reduced to the checks the paper's experiments exercise): issuer/
    subject name chaining with the §7.1 comparison rules, signature
    verification at each hop, validity windows, and basicConstraints on
    intermediates. *)

type anchor = { dn : Dn.t; spki : Certificate.spki }
(** A trust anchor: distinguished name plus key material. *)

type failure =
  | No_issuer_found of Dn.t     (** nothing in the pool chains further *)
  | Signature_invalid of int    (** depth (0 = leaf) *)
  | Certificate_expired of int
  | Issuer_not_ca of int        (** intermediate without CA basicConstraints *)
  | Name_constraint_violated of string
      (** a leaf SAN dNSName outside an issuer's NameConstraints *)
  | Path_too_long

val pp_failure : Format.formatter -> failure -> unit

val anchor_of_keypair : Dn.t -> Certificate.keypair -> anchor

val verify :
  at:Asn1.Time.t ->
  anchors:anchor list ->
  intermediates:Certificate.t list ->
  Certificate.t ->
  (Certificate.t list, failure) result
(** [verify ~at ~anchors ~intermediates leaf] builds a path from [leaf]
    through [intermediates] to an anchor, verifying each hop; on
    success returns the chain (leaf first, intermediates following).
    Name chaining uses {!Dn.equal_normalized} — the comparison model
    whose absence the paper's T2 findings exploit. *)
