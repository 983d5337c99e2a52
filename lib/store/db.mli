(** The certificate store: crash-safe, append-only, span-organized.

    Layout of a store directory:

    {v
      store.id                     immutable identity (scale/seed/fingerprint)
      manifest.json                committed inventory + build state
      certs-<lo>-<hi>.seg          cert records for corpus span [lo, hi)
      rows-<fp8>-<lo>-<hi>.seg     analysis rows, lockstep with the certs;
                                   fp8 = first 8 hex of sha256(lint list)
      certs-pack-<n>.seg           a pack: several spans' cert records,
      rows-<fp8>-pack-<n>.seg      back to back, and their rows
      index-<n>.idx                sealed index deltas (issuer, lint,
                                   flaw, domain, ulabel entries)
      store-quarantine.jsonl       fsck/recovery corruption sidecar
      *.quarantined                segments moved aside by repair
    v}

    Invariants (the durability contract, DESIGN.md §11):
    - cert and rows segments are appended in lockstep: record [k] of
      one corresponds to record [k] of the other, so after a crash the
      usable prefix is [min] of the two intact prefixes;
    - a {e sealed} one-span pair covers its whole span; an unsealed
      one is a crash artifact that {!recover} truncates, seals at its
      actual coverage, and adopts;
    - a pack is adopted only through the committed manifest; one the
      manifest does not name is a crash artifact that {!recover}
      deletes;
    - [manifest.json] only ever references sealed files, and is itself
      committed by atomic rename — so at every instant the manifest on
      disk describes only intact data. *)

exception Store_error of string
(** Unusable or incompatible store — binaries map this to exit 2. *)

type record =
  | Cert of { index : int; der : string }
  | Fault of { index : int; class_ : string; detail : string; der : string }
      (** A corrupt corpus delivery, kept so warm runs replay the fault
          ledger (class/detail feed quarantine + robustness reporting). *)

val index_of_record : record -> int

type t

val dir : t -> string
val id : t -> Manifest.id
val manifest : t -> Manifest.t

val create : dir:string -> scale:int -> seed:int -> fingerprint:string -> t
(** Open for building: make the directory, write [store.id] on first
    creation, and load (or initialize) the manifest.  Raises
    {!Store_error} when the directory already holds a store with a
    different identity. *)

val open_ro : dir:string -> t
(** Open an existing store read-only; {!Store_error} if absent or the
    identity/manifest are unreadable.  A store caught mid-build opens
    at its committed prefix: a valid identity with no committed
    manifest yet reads as an empty [`Building] store, and unsealed
    tail segments a writer is still appending stay invisible until
    the next atomic manifest commit. *)

val complete : t -> bool
(** Manifest state is [`Complete] and the sealed spans tile
    [0, scale). *)

val spans : t -> (Manifest.seg * Manifest.seg) list
(** Sealed (certs, rows) pairs, ascending [lo]. *)

(** {2 Recovery and building} *)

val recover : ?warn:(string -> unit) -> t -> lints:string -> unit
(** Normalize the directory after a possible crash: delete stray
    [.tmp] files, quarantine corrupt segments (a damaged pack with its
    mate, whole), truncate torn one-span tails, align each cert/rows
    pair to its common prefix, seal adopted partial pairs at their
    actual coverage, keep the committed manifest's intact pack spans,
    delete every other pack, drop spans whose rows were built for a
    different lint set, and commit a [`Building] manifest listing
    exactly the usable spans and no index deltas.  Idempotent; safe to
    re-run after a crash during recovery itself. *)

val gaps : t -> scale:int -> (int * int) list
(** Maximal uncovered index ranges, ascending — the work a build pass
    must (re)generate; [[]] means every index is already stored. *)

type pair_writer
(** Lockstep writer for a cert + rows segment pair holding one span
    or, as a pack, several. *)

val start_span : t -> lints:string -> lo:int -> hi:int -> pair_writer
(** A one-span pair ([certs-<lo>-<hi>.seg]), its span already open. *)

val start_pack : t -> lints:string -> pair_writer
(** A pack ([certs-pack-<n>.seg], [n] fresh), with no span open yet:
    one commit's spans, each begun with {!add_span}. *)

val add_span : pair_writer -> lo:int -> hi:int -> unit
(** Begin the next span: the records appended from here on cover
    [lo, hi).  Spans go in ascending [lo]. *)

val append : pair_writer -> record -> row:string -> unit
(** Appends to both segments; periodically flushes + fsyncs both. *)

val finish_pack : pair_writer -> (Manifest.seg * Manifest.seg) list
(** Seal both segments and return one (certs, rows) descriptor pair per
    span, ascending. *)

val finish_span : pair_writer -> Manifest.seg * Manifest.seg
(** {!finish_pack} for a one-span writer. *)

val close_noerr : pair_writer -> unit
(** Close without sealing — the crash/error path. *)

type rows_writer
(** Writer for a replacement rows segment (incremental recompute): the
    new column is written beside the old one and only takes effect
    when {!commit} publishes a manifest referencing it. *)

val start_rows_span : t -> lints:string -> lo:int -> hi:int -> rows_writer
val append_row : rows_writer -> string -> unit
val finish_rows_span : rows_writer -> Manifest.seg
val close_rows_noerr : rows_writer -> unit

val commit : t -> Manifest.t -> unit
(** Atomically publish a new manifest (the only mutation readers can
    observe), then delete files the new manifest no longer references
    (old rows columns, stale indexes). *)

(** {2 Reading} *)

val iter_pair : t -> Manifest.seg * Manifest.seg -> (record -> string -> unit) -> unit
(** Iterate one sealed (certs, rows) span in record order, verifying
    seals and CRCs up front; raises {!Store_error} on damage.  The
    handle keeps the last packs it read (up to 64 MiB of file data), so
    reading a pack's spans one by one scans the pack once. *)

val iter_pairs : t -> (record -> string -> unit) -> unit
(** Iterate every sealed span, reading each file once: file by file in
    the order of each file's first span, and each file's spans in
    ascending index order — ascending overall when every file holds
    one span.  Verifies CRCs as a side effect; raises {!Store_error}
    on damage discovered mid-read. *)

(** {2 Index deltas} *)

val save_indexes :
  ?base:bool -> t -> (string * (string * int list) list) list -> (string * string * string) list
(** [save_indexes db named] writes [named] (index name, entries) as one
    sealed delta beside the committed ones and returns the delta list
    the next manifest must carry.  Past a fixed count of deltas it
    folds them all, with [named], into one base delta instead.  With
    [~base:true], [named] is the whole index and the list is that one
    delta. *)

val load_index : t -> string -> ((string * int list) list, string) result
(** Load a named index (e.g. ["issuer"]) via the manifest: the union of
    every delta's entries, one per key, ids ascending. *)

val meta : t -> string -> string option
(** A manifest meta value (e.g. ["coverage"]). *)

(** {2 fsck} *)

type issue = {
  file : string;
  problem : string;  (** e.g. ["torn_tail"], ["bad_crc"], ["missing"] *)
  detail : string;
  repair : string;  (** what repair does: ["truncate"], ["quarantine"],
                        ["delete"], ["rebuild-manifest"], ["none"] *)
}

type fsck_report = {
  issues : issue list;
  spans_ok : int;  (** intact sealed cert spans *)
  spans_expected : int;  (** spans the manifest references *)
  store_state : [ `Complete | `Building | `Absent | `Foreign ];
  usable : bool;  (** some intact cert data (or a valid empty store) remains *)
  repaired : bool;
}

val fsck : ?repair:bool -> dir:string -> unit -> fsck_report
(** Verify everything: identity, manifest, every referenced segment's
    seal and CRCs, every index seal, strays.  With [repair]: truncate
    torn tails, quarantine corrupt segments (renamed to
    [*.quarantined] and logged to [store-quarantine.jsonl]), delete
    strays, and rewrite the manifest to reference only intact files
    (demoting [`Complete] to [`Building] when coverage was lost).
    A store of another format version is [`Foreign]: one ["version"]
    issue, and no file touched, [repair] or not.
    Never raises on corruption — corruption is the expected input. *)

val prewarm : unit -> unit
(** Force lazy state (counters) before [Domain.spawn]. *)
