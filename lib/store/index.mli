(** Persistent indexes: sealed, sorted text multimaps from a key
    (issuer org, lint name, flaw class, domain label, U-label) to the
    corpus indices of matching certificates.

    The store keeps them as {e deltas}: one file per commit holding
    the entries of every named index that the commit added.  A
    lookup takes the union of the deltas' ids per key (see {!union}).
    Format, following the [Ctlog.Wire] sealed-line idiom:

    {v
      USTOREIDX2
      <name> <name> ...
      <name>\t<key>\t<i1>,<i2>,...
      ...
      end <sha256 hex of every preceding byte>
    v}

    The second line lists the indexes the delta holds, so an index
    with no entries in it is still known.  Keys are percent-encoded
    (['%'], tab, newline, CR, controls), lines are sorted by name and
    then by encoded key, and the trailing seal makes truncation or
    edits detectable.  Files are committed atomically via {!Atomicf}
    across the ["index.rename.*"] crash points. *)

val save : dir:string -> file:string -> (string * (string * int list) list) list -> string
(** [save ~dir ~file named] writes one delta holding every [(name,
    entries)] of [named], each normalized as by {!union}, and returns
    its seal digest (hex) for the manifest.  Names must be non-empty
    and free of spaces, tabs and newlines. *)

val load : dir:string -> file:string -> ((string * (string * int list) list) list, string) result
(** Load and verify a delta: every index it holds, in the order
    listed, with its entries ([Error] on a missing seal, digest
    mismatch, or malformed line). *)

val sha_hex : dir:string -> file:string -> (string, string) result
(** The seal digest an intact file carries — what fsck compares against
    the manifest without decoding entries. *)

val union : (string * int list) list list -> (string * int list) list
(** One index from several parts: one entry per key, keys sorted by
    their encoded form, ids ascending without duplicates. *)
