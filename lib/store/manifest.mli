(** Store metadata: the immutable identity file and the mutable
    manifest, both committed atomically (tmp + rename, the
    {!Faults.Checkpoint} idiom) through {!Chaos} crash points.

    [store.id] is written once when the store is created and never
    rewritten: it pins what the store {e is} — scale, seed and the
    source fingerprint — so a crash can never leave identity in doubt.
    [manifest.json] is rewritten on every commit and pins what the
    store currently {e holds}: segment and index inventories with
    their seal digests, the lint set the rows column encodes, and the
    build state.  Losing the manifest is therefore survivable (sealed
    segments are self-describing enough to salvage); losing [store.id]
    is not, but its write window is a few hundred bytes at creation
    time. *)

type id = { scale : int; seed : int; fingerprint : string }

type seg = { file : string; lo : int; hi : int; records : int; at : int; seal : string }
(** One span of a sealed segment: corpus indices [lo, hi), held as the
    [records] records of [file] (relative to the store dir) from
    record position [at] on.  A one-span file holds its span at [at =
    0]; a pack holds several spans back to back, one descriptor each.
    [seal] is the file's seal digest (hex), the same in every
    descriptor of one file. *)

type t = {
  state : [ `Building | `Complete ];
  lints : string;  (** ';'-joined lint names the rows column encodes *)
  segments : seg list;  (** cert segments, ascending [lo], disjoint *)
  rows : seg list;  (** rows-column segments, spans mirror [segments] *)
  indexes : (string * string * string) list;
      (** index deltas, oldest first: (["delta"], file, sha256 hex) *)
  meta : (string * string) list;  (** free-form (coverage, bench notes) *)
}

val version : int
(** 2: span descriptors carry [at] and indexes are a delta list.  A
    store written by another version is refused with the version
    message. *)

val id_file : string
val file : string
(** Basenames: ["store.id"], ["manifest.json"]. *)

val save_id : dir:string -> id -> unit
val load_id : dir:string -> (id option, string) result
(** [Ok None] — file absent; [Error] — present but unreadable or wrong
    version. *)

val save : dir:string -> t -> unit
(** Serialize, write [manifest.json.tmp] (a {!Chaos} ["manifest.write"]
    op), fsync, then rename across the ["manifest.rename.before"] /
    ["manifest.rename.after"] crash points. *)

val load : dir:string -> (t option, string) result

val foreign_version : dir:string -> (string * int) option
(** [Some (basename, v)] when [dir]'s identity or manifest declares
    format version [v], not {!version}: rebuild the store. *)
