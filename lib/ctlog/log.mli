(** A CT log server model (RFC 6962): accepts (pre)certificates,
    appends them to a Merkle tree, returns SCTs, and serves tree heads
    and proofs — the substrate the CT-monitor experiments index. *)

type sct = {
  log_id : string;       (** SHA-256 of the log's public identity *)
  timestamp : int;       (** logical submission time (entry index) *)
  signature : string;    (** binding over (log_id, leaf) *)
}

type entry = { index : int; der : string; precert : bool }

type t

val create : name:string -> t
val log_id : t -> string

val leaf_bytes : precert:bool -> string -> string
(** The Merkle leaf encoding of an entry: a precert marker byte followed
    by the DER — what {!Merkle.leaf_hash} is computed over.  Exposed so
    fetch clients can recompute leaf hashes for root verification. *)

val tree : t -> Merkle.t
(** The log's Merkle tree (read-only use: proofs over historical
    sizes). *)

val add_chain : t -> ?precert:bool -> string -> sct
(** [add_chain t der] appends a certificate (by its DER bytes) and
    returns its SCT. *)

val append : t -> ?precert:bool -> string -> int
(** [append t der] appends like {!add_chain} without issuing an SCT and
    returns the entry's index: for logs populated in bulk whose SCTs
    nobody reads. *)

val verify_sct : t -> der:string -> sct -> bool

val entries : t -> entry list
(** All entries, oldest first. *)

val size : t -> int
val tree_head : t -> string

val prove_inclusion : t -> int -> string list

val get : t -> int -> entry option
