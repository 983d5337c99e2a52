(** The RFC 6962 §3 issuance flow: precertificate (with the critical CT
    poison extension) → log submission → SCT → final certificate with
    the SCT list embedded.  The paper's dataset step filters 54.7%
    precertificates by exactly this poison marker (§4.1). *)

val sct_to_bytes : Log.sct -> string
(** Length-prefixed serialization of an SCT for the SCT-list
    extension. *)

val sct_of_bytes : string -> (Log.sct, string) result

type issued = {
  precert : X509.Certificate.t;   (** carries the poison extension *)
  final : X509.Certificate.t;     (** carries the SCT list instead *)
}

val issue_with_sct :
  Log.t -> X509.Certificate.keypair -> X509.Certificate.tbs -> issued
(** [issue_with_sct log ca tbs] runs the full flow: signs the poisoned
    precertificate, submits it, embeds the returned SCT in the final
    certificate, and logs the final certificate too. *)

val embedded_scts : X509.Certificate.t -> Log.sct list
(** Parse the SCT-list extension of a final certificate. *)

val verify_embedded : Log.t -> X509.Certificate.t -> bool
(** [verify_embedded log cert] checks that some embedded SCT is a valid
    SCT of [log] over the certificate's precertificate form. *)
