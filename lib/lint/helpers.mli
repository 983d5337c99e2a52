(** Shared building blocks for the concrete lints. *)

val smtputf8_oid : Asn1.Oid.t
(** id-on-smtpUTF8Mailbox (1.3.6.1.5.5.7.8.9), interned once. *)

(** {1 Effective dates} *)

(* rfc5280 2008-05, idna2008 2010-08, cab_br 2012-07, community 2015-01,
   rfc8399 2018-05, rfc9598 2024-06, rfc9549 2024-07 *)

val rfc5280_date : Asn1.Time.t
val idna2008_date : Asn1.Time.t
val cab_br_date : Asn1.Time.t
val community_date : Asn1.Time.t
val rfc8399_date : Asn1.Time.t
val rfc9598_date : Asn1.Time.t

(** {1 Status helpers} *)

val emit : Types.level -> string list -> Types.status
(** [emit level details] is [Pass] on no details, otherwise [Fail] for
    MUST-level lints and [Warn] for SHOULD-level ones. *)

val describe_cp : Unicode.Cp.t -> string

(** {1 ATV iteration} *)

val subject_values : Ctx.t -> Ctx.aval list
(** Precomputed fact records for subject string ATVs. *)

val all_values : Ctx.t -> Ctx.aval list
(** Subject then issuer fact records (the precomputed concatenation —
    no per-lint list building). *)

val count_attr : X509.Attr.t -> Ctx.aval list -> int
(** [count_attr attr vals] counts the values of attribute [attr]. *)

(** {1 Allocation-free scans}

    A lint allocates only when it reports something: these scans build
    no closure of their own, so with a closed predicate a pass that
    finds nothing allocates nothing. *)

val exists_byte : (char -> bool) -> string -> bool

(** {1 GeneralName payload extraction} *)

val san_names : Ctx.t -> Ctx.general_names
val ian_names : Ctx.t -> Ctx.general_names
val crldp_list : Ctx.t -> Ctx.general_names

val aia_details : (X509.General_name.t -> string list) -> Ctx.t -> string list
(** [aia_details f ctx] concatenates [f] over the AIA accessLocations,
    without building the location list. *)

val sia_details : (X509.General_name.t -> string list) -> Ctx.t -> string list

val non_ia5 : string -> int list
(** Byte values above 0x7F present in the payload. *)
