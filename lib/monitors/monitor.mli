(** CT monitor simulators (§6.1).

    Each profile reproduces one public monitor's indexing and query
    behaviour from Table 6: which fields it indexes, how it handles
    case, Unicode and fuzzy queries, whether it validates U-labels, and
    whether special characters break its indexing. *)

type profile = {
  name : string;
  indexes_subject_attrs : bool;
      (** Crt.sh also indexes O/OU/emailAddress, not just CN+SAN. *)
  fuzzy_search : bool;
  unicode_search : bool;  (** accepts non-ASCII query input *)
  ulabel_check : bool;    (** validates U-label legality before querying *)
  punycode_ccidn : bool;  (** accepts A-label queries under IDN ccTLDs *)
  cn_split_slash : bool;
      (** SSLMate: match only the CN substring before "/" (P1.4) *)
  cn_drop_with_space : bool;
      (** SSLMate: ignore CNs containing a space (P1.4) *)
  index_drops_special : bool;
      (** entries with control characters never enter the index *)
}

type fields = {
  f_cns : string list;    (** subject CommonName values *)
  f_sans : string list;   (** SAN dNSName entries *)
  f_attrs : string list;  (** O / OU / emailAddress values *)
}
(** The subject material a monitor indexes, independent of whether it
    came from a parsed certificate or a stored analysis row — the
    incremental-ingest surface the monitor daemon feeds from store
    rows. *)

type kind = Cn | San | Attr  (** which of {!fields} a subject value is in *)

val field_key : profile -> kind -> string -> string option
(** The key this monitor derives from one subject value, before case
    folding: CN filtering (slash split, space drop), subject attributes
    only when indexed, special-character dropping.  [None] when the
    value never enters the index; a value kept whole is returned
    uncopied. *)

val fold_key : string -> string
(** ASCII case folding; a key that is already lowercase is returned
    uncopied. *)

val keys_of_fields : profile -> fields -> string list
(** The folded index keys this monitor derives from one certificate's
    fields: {!field_key} over CNs, SANs and attributes, then
    {!fold_key}. *)

val same_keys : profile -> profile -> bool
(** Whether two profiles derive the same keys from any fields: they
    agree on every profile field {!keys_of_fields} reads. *)

val prepare_query : profile -> string -> (string, string) result
(** [prepare_query prof q] is the lookup string the monitor would
    actually search for — U-labels converted to A-labels — or [Error
    reason] when the monitor refuses the input (Unicode unsupported,
    U-label/A-label legality check failed, Punycode query under an IDN
    ccTLD on a profile that rejects those). *)

val contains : needle:string -> string -> bool
(** Whether [needle] occurs in the key, without allocating: the
    substring test of the fuzzy profiles.  The empty needle occurs
    nowhere. *)

type instance

val create : profile -> instance

val ingest : instance -> X509.Certificate.t -> unit
(** [ingest m cert] indexes a logged certificate. *)

val ingest_log : instance -> Ctlog.Log.t -> unit
(** Index every parseable entry of a CT log. *)

type query_result =
  | Refused of string        (** input rejected before searching *)
  | Results of X509.Certificate.t list

val search : instance -> string -> query_result
(** [search m q] looks [q] up the way the monitor would: case folding,
    optional U-label validation and conversion, exact or substring
    matching. *)

val crtsh : profile
val sslmate : profile
val facebook : profile
val entrust : profile

val all : profile list

val of_key : string -> profile option
(** The profile with this short stable key (["crtsh"], ["sslmate"],
    ...), as the query protocol and CLI flags name them. *)
