(** Quarantine sink: offending certificate bytes plus the structured
    error, one JSON record per line in a sidecar file.

    Records survive crashes of the writing process — each write is
    flushed before the call returns — and the format is line-oriented
    so a partially written final line never corrupts earlier ones. *)

type t

val open_shard : dir:string -> run_seed:int -> shard:int -> t
(** Creates [dir] when needed and opens the per-shard sidecar
    [dir]/quarantine-<run_seed>.shard<k>.jsonl for one shard of a pass:
    concurrent domains appending to a single file would interleave
    mid-record, so each shard writes its own file.  Opened truncating
    (a shard file is transient; a leftover from a crashed pass must not
    double its records).
    @raise Sys_error when the directory cannot be created. *)

val merge_shards : dir:string -> run_seed:int -> shards:int -> string
(** Concatenate the shard sidecars in shard order — which is corpus
    index order, since shards are contiguous ascending ranges — onto
    the main [quarantine-<run_seed>.jsonl], delete them, and return the
    main path.  The merged file is byte-identical to what a sequential
    pass would have appended.  Missing shard files (shards with no
    faults still write an empty file; a crash may leave none) are
    skipped. *)

val prewarm : unit -> unit
(** Force the module's lazy telemetry handles.  Call once from the
    coordinating domain before spawning workers — [Lazy.force] is not
    domain-safe in OCaml 5. *)

val path : t -> string

val record :
  t -> index:int -> error:Error.t -> der:string -> unit
(** Append one record ([index], error class + detail, DER bytes as
    hex) and flush.  Counted in [unicert_quarantine_total]. *)

val count : t -> int
(** Records written through this handle. *)

val close : t -> unit

type entry = {
  index : int;
  error_class : string;
  detail : string;
  der : string;  (** decoded back from hex *)
}

val load : string -> entry list
(** Re-read a quarantine file (test / triage support).  Lines that do
    not parse — e.g. a torn final line after a crash — are skipped. *)
