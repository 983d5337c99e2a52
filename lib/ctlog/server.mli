(** A CT log front end over {!Log}: paged get-entries / get-sth /
    get-consistency served as sealed {!Wire} bodies, plus the
    misbehaviours the fetch client must survive — delayed publication
    and an equivocating variant serving tree heads from a shadow tree
    with one leaf flipped (a split view). *)

type t

val default_page_cap : int
(** 64 entries per get-entries response. *)

val create : ?page_cap:int -> Log.t -> t
(** Starts with everything currently in the log published. *)

val published : t -> int
(** The visible tree size: get-sth and get-entries answer only up to
    here. *)

val requests : t -> int
(** Requests served so far (drives {!equivocate_after}). *)

val set_published : t -> int -> unit

val equivocate_after : t -> at_request:int -> flip:int -> unit
(** After [at_request] requests, serve tree heads and consistency
    proofs from a shadow tree whose leaf [flip] is bit-flipped — a
    split view that {!Fetch} must detect via
    {!Merkle.verify_consistency}. *)

val handle : t -> Net.Transport.request -> string
(** The transport handler.  Endpoints: ["get-sth"] (page ignored),
    ["get-entries"] (page = start index, at most [page_cap] entries
    returned), ["get-consistency/<second>"] (page = first). *)
