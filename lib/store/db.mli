(** The certificate store: crash-safe, append-only, span-organized.

    Layout of a store directory:

    {v
      store.id                     immutable identity (scale/seed/fingerprint)
      manifest.json                committed inventory + build state
      certs-<lo>-<hi>.seg          cert records for corpus span [lo, hi)
      rows-<fp8>-<lo>-<hi>.seg     analysis rows, lockstep with the certs;
                                   fp8 = first 8 hex of sha256(lint list)
      <name>.idx                   sealed indexes (issuer, lint, flaw,
                                   domain, ulabel)
      store-quarantine.jsonl       fsck/recovery corruption sidecar
      *.quarantined                segments moved aside by repair
    v}

    Invariants (the durability contract, DESIGN.md §11):
    - cert and rows segments for a span are appended in lockstep: record
      [k] of one corresponds to record [k] of the other, so after a
      crash the usable prefix is [min] of the two intact prefixes;
    - a {e sealed} pair covers its whole span; an unsealed pair is a
      crash artifact that {!recover} truncates, seals at its actual
      coverage, and adopts;
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
    [.tmp] files, quarantine corrupt segments, truncate torn tails,
    align each cert/rows pair to its common prefix, seal adopted
    partial pairs at their actual coverage, drop pairs whose rows were
    built for a different lint set, and commit a [`Building] manifest
    listing exactly the usable spans.  Idempotent; safe to re-run after
    a crash during recovery itself. *)

val gaps : t -> scale:int -> (int * int) list
(** Maximal uncovered index ranges, ascending — the work a build pass
    must (re)generate; [[]] means every index is already stored. *)

type pair_writer
(** Lockstep writer for one span's cert + rows segments. *)

val start_span : t -> lints:string -> lo:int -> hi:int -> pair_writer
val append : pair_writer -> record -> row:string -> unit
(** Appends to both segments; periodically flushes + fsyncs both. *)

val finish_span : pair_writer -> Manifest.seg * Manifest.seg
(** Seal both segments and return their manifest descriptors. *)

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
(** Iterate one sealed (certs, rows) pair in record order, verifying
    seals and CRCs up front; raises {!Store_error} on damage. *)

val iter_pairs : t -> (record -> string -> unit) -> unit
(** Iterate sealed spans in ascending index order, verifying CRCs as a
    side effect; raises {!Store_error} on damage discovered mid-read. *)

val load_index : t -> string -> ((string * int list) list, string) result
(** Load a named index (e.g. ["issuer"]) via the manifest. *)

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
  store_state : [ `Complete | `Building | `Absent ];
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
    Never raises on corruption — corruption is the expected input. *)

val prewarm : unit -> unit
(** Force lazy state (counters) before [Domain.spawn]. *)
