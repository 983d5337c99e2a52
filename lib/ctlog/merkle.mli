(** RFC 6962 Merkle hash trees: tree heads, inclusion proofs, and
    consistency proofs over an append-only leaf sequence.

    Each tree caches the hashes of its perfect (aligned power-of-two)
    subtrees the first time a query needs them, so a root or a proof
    costs O(log n) hashes instead of O(n).  Queries fill the cache, so
    like appends they must not run on one tree from two domains at
    once. *)

type t
(** An append-only Merkle tree over byte-string leaves. *)

val create : unit -> t
val append : t -> string -> int
(** [append t leaf] adds a leaf and returns its index. *)

val append_hash : t -> string -> int
(** [append_hash t h] adds a leaf whose {!leaf_hash} is [h], for
    rebuilding a tree from stored leaf hashes. *)

val size : t -> int

val leaf_hash : string -> string
(** [leaf_hash data] is [SHA-256(0x00 || data)]. *)

val node_hash : string -> string -> string
(** [node_hash l r] is [SHA-256(0x01 || l || r)]. *)

val root : t -> string
(** [root t] is the Merkle tree head (the hash of the empty string for
    an empty tree). *)

val root_of_range : t -> int -> string
(** [root_of_range t n] is the tree head over the first [n] leaves. *)

val inclusion_proof : t -> int -> string list
(** [inclusion_proof t i] is the audit path for leaf [i] against the
    current tree head (RFC 6962 §2.1.1). *)

val verify_inclusion :
  leaf:string -> index:int -> size:int -> proof:string list -> root:string -> bool

val consistency_proof : t -> int -> string list
(** [consistency_proof t m] proves the first [m] leaves are a prefix of
    the current tree (RFC 6962 §2.1.2). *)

val consistency_proof_range : t -> int -> int -> string list
(** [consistency_proof_range t m n] proves size [m] is a prefix of size
    [n] ([m <= n <= size t]) — what a log answers for
    get-consistency(first=m, second=n) after the tree has grown
    past [n]. *)

val verify_consistency :
  old_size:int -> old_root:string -> new_size:int -> new_root:string ->
  proof:string list -> bool
