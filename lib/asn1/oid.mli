(** ASN.1 object identifiers. *)

type t = int list
(** An OID as its arc list, e.g. [[2; 5; 4; 3]] for [id-at-commonName].
    Valid OIDs have at least two arcs with the usual first-arc
    constraints. *)

val to_string : t -> string
(** [to_string oid] is the dotted-decimal form, e.g. ["2.5.4.3"]. *)

val of_string : string -> t option
(** [of_string s] parses dotted-decimal notation. *)

val of_string_exn : string -> t
(** Like {!of_string}; raises [Invalid_argument] on parse failure. *)

val equal : t -> t -> bool
(** Structural equality with a physical-equality fast path — interned
    OIDs compare in one pointer test. *)

val register : t -> t
(** [register oid] adds [oid] to the intern table and returns the
    canonical representative.  Must only be called during module
    initialisation (single-threaded); the table is read-only afterwards
    so {!decode}'s interning is safe under parallel domains. *)

val encode : t -> string
(** [encode oid] is the DER content octets (no tag/length). Raises
    [Invalid_argument] if [oid] has fewer than two arcs. *)

val decode : string -> (t, string) result
(** [decode content] parses DER content octets. *)
