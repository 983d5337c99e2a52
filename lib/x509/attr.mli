(** Distinguished-name attribute types: OIDs, names, and the per-type
    constraints of RFC 5280 Appendix A (upper bounds, permitted
    DirectoryString encodings). *)

type t =
  | Common_name
  | Surname
  | Serial_number
  | Country_name
  | Locality_name
  | State_or_province_name
  | Street_address
  | Organization_name
  | Organizational_unit_name
  | Title
  | Given_name
  | Business_category
  | Postal_code
  | Domain_component
  | Email_address
  | Jurisdiction_locality
  | Jurisdiction_state
  | Jurisdiction_country
  | Unknown of Asn1.Oid.t

val oid : t -> Asn1.Oid.t
val of_oid : Asn1.Oid.t -> t
val name : t -> string
(** [name a] is the long name, e.g. ["commonName"]. *)

val short_name : t -> string option
(** [short_name a] is the RFC 4514 short form (["CN"], ["O"], …) when
    one exists. *)

val all_known : t list
(** Every concrete attribute type (no [Unknown]). *)
