(** Atomic whole-file commits for the store: write [path].tmp through
    the {!Chaos} write hook, fsync, then rename into place across a
    pair of declared crash points.  A crash at any point leaves either
    the old file, the new file, or a stray [.tmp] — never a torn
    destination.  Stray [.tmp] files are crash artifacts that recovery
    deletes. *)

val write : op:string -> rename_point:string -> string -> string -> unit
(** [write ~op ~rename_point path content]: [op] names the Chaos write
    operation (e.g. ["manifest.write"]); the crash points hit are
    [rename_point ^ ".before"] and [rename_point ^ ".after"]. *)
