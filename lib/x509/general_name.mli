(** GeneralName (RFC 5280 §4.2.1.6): the CHOICE behind SAN, IAN, AIA,
    SIA, and CRLDistributionPoints.

    String payloads are raw bytes as carried in the certificate —
    DNSNames with embedded NULs, spaces, or non-IA5 bytes survive
    untouched for the linter and parser models to judge. *)

type t =
  | Other_name of Asn1.Oid.t * string  (** [0] type-id + raw DER value *)
  | Rfc822_name of string              (** [1] email, raw IA5String bytes *)
  | Dns_name of string                 (** [2] raw IA5String bytes *)
  | Directory_name of Dn.t             (** [4] *)
  | Uri of string                      (** [6] raw IA5String bytes *)
  | Ip_address of string               (** [7] 4 or 16 raw octets *)
  | Registered_id of Asn1.Oid.t        (** [8] *)

val to_value : t -> Asn1.Value.t
val of_value : Asn1.Value.t -> (t, string) result

val kind : t -> string
(** [kind gn] is the choice name, e.g. ["dNSName"]. *)

val text : t -> string
(** [text gn] is a best-effort human-readable payload (IP addresses in
    dotted/hex form, directory names via {!Dn.to_string}). *)
