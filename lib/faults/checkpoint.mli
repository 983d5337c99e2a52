(** Crash-safe periodic checkpointing for long analysis runs.

    A checkpoint snapshots the run parameters, the next corpus index to
    process, and an opaque marshalled state value.  Saves are atomic
    (write to a temp file, then [rename]) so a crash mid-save leaves
    the previous checkpoint intact.  Because the corpus stream is a
    pure function of [(scale, seed)], resuming only needs to replay the
    stream and skip indices below [next_index].

    Files start with a magic string and a format-version line.  A file
    that exists but is not a current-format checkpoint raises
    {!Invalid} instead of being silently ignored — restarting from
    scratch when the operator asked to resume is a correctness bug, so
    binaries surface it as a validation error (exit 2). *)

type 'a t = {
  scale : int;
  seed : int;
  next_index : int;  (** first unprocessed corpus index *)
  state : 'a;
}

exception Invalid of string
(** The path exists but holds no usable checkpoint: bad magic, a
    different format version, or a corrupt payload.  The message names
    the file and what to do (delete it or rerun without [--resume]). *)

val shard_file : string -> int -> string
(** [shard_file path k] is the per-shard checkpoint path
    ([path.shard<k>]) a parallel run uses: each worker domain
    checkpoints its own index range independently, so one run keeps one
    cursor file per shard instead of a single global cursor. *)

val save : string -> 'a t -> unit
(** Atomic: the file named never holds a partial write.  When the
    state cannot be marshalled (it holds a closure) or the write fails
    (a full disk), the exception propagates and no [FILE.tmp] is left
    behind. *)

val load : string -> 'a t option
(** [None] when the file is missing; raises {!Invalid} when it exists
    but fails magic, version, or payload validation. *)

(** {2 Journaled checkpoints}

    For state that only grows, such as a fetch cursor's delivered
    entries: a small header plus an append-only [FILE.journal] of
    marshalled records.  The header carries a {!mark} naming the
    durable journal prefix.  A save appends the records that arrived
    since the previous save, then replaces the header, so its cost
    follows the new records, not the history.  A crash between the two
    steps leaves the previous header; its mark excludes the new tail,
    which {!load_journaled} ignores and the next save cuts off before
    appending.

    The header is replaced in place, not by tmp + rename, so a save
    costs no metadata commit: it holds two checksummed slots, each save
    overwrites the older one, and a load takes the newer valid slot.
    A process killed mid-save tears at most the slot being written.
    The first save of a fresh checkpoint writes the whole header by
    tmp + rename.  Like {!save}, nothing is fsynced: the contract
    covers process death, not power loss. *)

type mark = {
  saves : int;  (** header saves so far; [0] for a fresh checkpoint *)
  records : int;  (** journal records the header vouches for *)
  bytes : int;  (** journal bytes the header vouches for *)
}

val empty_mark : mark
(** A fresh checkpoint: no saves, an empty journal. *)

val journal_file : string -> string
(** [journal_file path] is [path.journal]. *)

val save_journaled : string -> 'a t -> journal:mark -> 'r list -> mark
(** [save_journaled path t ~journal records] appends [records] (oldest
    first) after the [journal] prefix of {!journal_file}[ path],
    dropping whatever lies past that prefix, then replaces the header
    [path] with [t] and the new mark, which it returns.  [journal] must
    be the mark the previous save returned or the load read
    ({!empty_mark} starts afresh, replacing any existing header).  The
    journal is untouched when [records] is empty or when [t] or a
    record cannot be marshalled; when a save raises after appending,
    the header still names the old prefix.  Raises {!Invalid} when the
    journal is shorter than [journal] says, and [Invalid_argument]
    when the marshalled [t] exceeds 4 KiB. *)

val load_journaled : string -> ('a t * mark * 'r list) option
(** The newest valid header slot, its mark and the journal records it
    vouches for (oldest first); bytes past the mark are ignored.
    [None] when the header is missing; raises {!Invalid} when no slot
    is valid (bad magic, another format version, torn) or the journal
    is missing, short or corrupt within the mark. *)

(** Every save adds the bytes it writes to the
    [unicert_checkpoint_bytes_written_total] counter. *)

val stale_cursors :
  string -> active_shards:int option -> active_fetch:int option -> string list
(** [stale_cursors path ~active_shards ~active_fetch] lists existing
    [path.shard<k>] files with [k >= active_shards] and [path.fetch<k>]
    files (and their [.journal]s) with [k >= active_fetch] — cursors left behind by an earlier
    run that used more shards (or logs) than the current one.  A [None]
    active count exempts that whole family: a generate-sourced run
    passes [active_fetch:None] because [.fetch<k>] files are another
    run mode's live resume state, not its own stale droppings (and
    symmetrically).  Sorted; empty when the directory is unreadable. *)

val remove_stale :
  string -> active_shards:int option -> active_fetch:int option -> string list
(** Delete the {!stale_cursors} and return the paths removed.  Callers
    warn at start-up and call this only after a successful completion,
    so a killed run keeps its evidence on disk. *)
