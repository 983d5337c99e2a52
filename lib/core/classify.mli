(** Unicert classification (paper §2.3): a certificate is a {e Unicert}
    when it carries internationalized content — characters beyond
    printable ASCII in any field, or IDNs in DNSName-related fields —
    and an {e IDNCert} when those fields contain IDNs. *)

val is_unicert : X509.Certificate.t -> bool

val unicode_fields : X509.Certificate.t -> (string * bool) list
(** [(field name, beyond-ASCII content present)] for the 21 fields
    Figure 4 surveys (subject and issuer attributes plus SAN/IAN/CP
    payloads). *)

val unicode_fields_of_ctx : Lint.Ctx.t -> (string * bool) list
(** {!unicode_fields} reading from a precomputed fact table instead of
    re-walking the certificate — the fused pipeline's classify stage. *)
