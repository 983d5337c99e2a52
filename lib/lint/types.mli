(** Core linting types — a zlint-style framework specialized for the
    paper's Unicert constraint rules. *)

(** Standards a rule derives from. *)
type source =
  | Rfc5280
  | Rfc8399
  | Rfc9549
  | Rfc9598
  | Rfc1034
  | Rfc5890
  | Idna2008
  | Cab_br
  | X680
  | Community

val source_name : source -> string

(** Requirement level in the source standard. *)
type level = Must | Must_not | Should | Should_not

val level_name : level -> string

(** Noncompliance taxonomy of the paper (§4.3.1). *)
type nc_type =
  | Invalid_character   (** T1 *)
  | Bad_normalization   (** T2 *)
  | Illegal_format      (** T3a *)
  | Invalid_encoding    (** T3b *)
  | Invalid_structure   (** T3c *)
  | Discouraged_field   (** T3d *)

val nc_type_name : nc_type -> string
val all_nc_types : nc_type list

type severity = Error | Warning

val severity_of_level : level -> severity
(** MUST/MUST NOT violations are errors; SHOULD/SHOULD NOT warnings. *)

type status =
  | Na    (** lint does not apply to this certificate *)
  | Pass
  | Warn of string list
  | Fail of string list

type t = {
  name : string;           (** e.g. ["e_rfc_dns_idn_malformed_unicode"] *)
  description : string;
  source : source;
  level : level;
  nc_type : nc_type;
  is_new : bool;           (** one of the paper's 50 new Unicode lints *)
  effective_date : Asn1.Time.t;
      (** applies only to certificates issued on/after this date *)
  check : Ctx.t -> status;
}

type finding = { lint : t; status : status }

val severity : t -> severity

val is_noncompliant : finding -> bool
(** [is_noncompliant f] — the status is [Warn] or [Fail]. *)

val mk :
  name:string ->
  description:string ->
  source:source ->
  level:level ->
  nc_type:nc_type ->
  ?is_new:bool ->
  effective:Asn1.Time.t ->
  (Ctx.t -> status) ->
  t
