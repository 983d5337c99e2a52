(** Checksummed append-only segment files.

    A segment is the store's unit of durability: a fixed header,
    CRC-framed records, and (once complete) a sealed footer.

    {v
      header : "USTORESEG1\n"                        (11 bytes)
      record : 'R' | u32be len | u32be crc32(payload) | payload
      seal   : 'S' | u32be count | sha256(headers ^ u32be count)
    v}

    where [headers] is the concatenation of every record's 8-byte
    (len, crc) field pair in order.  The seal digest therefore pins
    the record count and every record's length and checksum without
    the writer having to buffer segment contents — O(records) memory,
    not O(bytes).

    Failure taxonomy (the durability contract of DESIGN.md §11):
    - a torn tail on an {e unsealed} segment is a normal crash artifact
      — repairable by truncating to [good_bytes];
    - a CRC mismatch, bad frame, bad header, bad seal, or trailing
      garbage is corruption — the segment is quarantined, never
      silently truncated.

    All writes flow through {!Chaos}, which may tear, shorten, or
    bit-flip them. *)

type writer

val create : string -> writer
(** Create (truncate) a segment file and write the header. *)

val reopen : string -> writer
(** Reopen an {e unsealed} segment for further appends.  The existing
    records are rescanned to restore the seal-digest accumulator.
    Raises [Invalid_argument] if the file is sealed or damaged — callers
    must normalize (truncate torn tails) first. *)

val append : writer -> string -> unit
(** Append one record.  May raise {!Chaos.Crashed}; the writer is then
    poisoned and every later write (including the implicit flush in
    {!close}) is suppressed, freezing the on-disk state at the simulated
    point of death. *)

val sync : writer -> unit
(** Flush buffered frames and [fsync]. *)

val seal : writer -> string
(** Write the footer, flush, [fsync].  The segment is complete.
    Returns the hex seal digest over the records appended — the value
    a clean {!scan} reports, recorded in the manifest.  A poisoned
    writer writes nothing but still returns the digest. *)

val close : writer -> unit
val count : writer -> int

type problem =
  | Bad_header                               (** magic mismatch / too short *)
  | Torn_tail of { offset : int }            (** incomplete trailing record *)
  | Bad_frame of { offset : int }            (** unknown tag byte *)
  | Bad_crc of { record : int; offset : int }
  | Bad_seal                                 (** footer digest/count mismatch *)
  | Trailing of { offset : int }             (** bytes after a valid seal *)

val problem_name : problem -> string
val describe_problem : problem -> string

type scan = {
  data : string;           (** the file as read *)
  starts : int array;      (** byte offset of each intact record's
                               payload in [data] *)
  ends : int array;        (** byte offset just past each intact record —
                               payload [k] is [data] from [starts.(k)] to
                               [ends.(k)], and [ends.(k)] is the
                               truncation target that keeps records
                               [0..k] *)
  count : int;             (** number of intact records *)
  sealed : bool;           (** footer present and verified *)
  good_bytes : int;        (** prefix length through the last intact record *)
  seal_hex : string;       (** digest over the intact records *)
  problem : problem option;
}

val scan : string -> (scan, string) result
(** Read and verify a segment.  The file is read into one string and
    each record located in place: no payload is copied.  [Error] is an
    I/O-level failure (missing file, permission). *)

val payload : scan -> int -> string
(** [payload sc k] copies out intact record [k]. *)

val truncate : string -> int -> unit
(** [truncate path n] cuts the file to its first [n] bytes — the torn
    tail repair, applied at [good_bytes]. *)
