(** DNS name syntax (RFC 1034 preferred name syntax, RFC 5890 LDH
    rules) as applied to certificate DNSName fields. *)

type issue =
  | Empty_name
  | Name_too_long of int          (** over 253 octets *)
  | Empty_label
  | Label_too_long of string      (** over 63 octets *)
  | Bad_character of string * Unicode.Cp.t  (** label, offending cp *)
  | Leading_hyphen of string
  | Trailing_hyphen of string
  | Whitespace_in_name

val pp_issue : Format.formatter -> issue -> unit

val split_labels : string -> string list
(** [split_labels name] splits on dots; a trailing root dot yields a
    final empty label. *)

val check : ?allow_wildcard:bool -> string -> issue list
(** [check name] lists every LDH-syntax violation of an (ASCII) DNS
    name.  [allow_wildcard] (default true) permits a sole leading
    ["*"] label, as certificates do. *)

val is_ldh_name : string -> bool
(** [is_ldh_name name] is [check name = []]. *)

val is_a_label_candidate : string -> bool
(** [is_a_label_candidate l] — case-insensitive ["xn--"] prefix. *)

val is_idn_cctld : string -> bool
(** [is_idn_cctld l] — [l] is the A-label of a root-zone IDN
    {e country-code} TLD (e.g. ["xn--p1ai"] = .рф).  IDN generic TLDs
    are deliberately excluded: monitors that refuse "Punycode IDN
    ccTLD" queries (Table 6) refuse only the former. *)
