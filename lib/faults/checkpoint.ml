type 'a t = { scale : int; seed : int; next_index : int; state : 'a }

exception Invalid of string

(* A magic prefix plus an explicit format-version line let [load]
   reject non-checkpoint files and stale formats loudly, instead of
   relying on Marshal's (unsafe) failure modes or silently restarting
   a run the operator believed was resumable.  The version line is
   shared by every checkpoint family, so a bump refuses them all. *)
let magic = "UNICERT-CKPT2\n"
let old_magics = [ "UNICERT-CKPT1\n" ]
let version = 4
let version_line = Printf.sprintf "v%03d\n" version

(* Why each version bumped; a refusal lists the bumps newer than the
   file it refuses. *)
let history =
  [ (3, "fetch cursors became a header plus an append-only journal");
    (4, "shard cursors gained the undated per-lint histogram") ]

let changes_since found =
  let n = Option.value ~default:max_int (Scanf.sscanf_opt found "v%d%!" Fun.id) in
  match List.filter (fun (v, _) -> v > n) history with
  | [] -> ""
  | later ->
      Printf.sprintf " (%s)"
        (String.concat "; "
           (List.map (fun (v, what) -> Printf.sprintf "v%03d: %s" v what) later))

let shard_file path shard = Printf.sprintf "%s.shard%d" path shard

(* Registered at module initialisation, before any domain spawns. *)
let bytes_written =
  Obs.Registry.counter
    ~help:"Bytes written by checkpoint saves (headers and journal appends)"
    "unicert_checkpoint_bytes_written_total"

let written n = Obs.Counter.add bytes_written (float_of_int n)

let invalid path fmt =
  Printf.ksprintf (fun s -> raise (Invalid (Printf.sprintf "%s: %s" path s))) fmt

(* Files are written through raw descriptors: an OCaml channel would
   hold a 64 KiB buffer until the GC finalises it, and a monitor saves
   every cursor on every poll. *)
let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* Callers marshal the state before calling, so a state Marshal
   refuses (a closure, say) raises with no file opened; a failed write
   still closes the descriptor and removes the tmp file. *)
let write_atomic path parts =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  match
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> List.iter (write_all fd) parts)
  with
  | () ->
      Unix.rename tmp path;
      written (List.fold_left (fun n p -> n + String.length p) 0 parts)
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let save path t = write_atomic path [ magic; version_line; Marshal.to_string t [] ]

(* Why [s] does not start, at [off], with this format's magic and
   version lines; [None] when it does. *)
let prefix_error s off =
  let has str at =
    at + String.length str <= String.length s
    && String.sub s at (String.length str) = str
  in
  let vat = off + String.length magic in
  if has magic off then
    if has version_line vat then None
    else if String.length s < vat + String.length version_line then
      Some "truncated version header"
    else
      let found = String.trim (String.sub s vat (String.length version_line)) in
      Some
        (Printf.sprintf
           "checkpoint format version %s does not match this binary's %s%s; \
            delete it or rerun without --resume"
           found (String.trim version_line) (changes_since found))
  else
    match List.find_opt (fun m -> has m off) old_magics with
    | Some old ->
        Some
          (Printf.sprintf
             "checkpoint written by an incompatible older format (%s); \
              delete it or rerun without --resume"
             (String.trim old))
    | None when String.length s < off + String.length magic ->
        Some "not a checkpoint (file shorter than the header)"
    | None -> Some "not a checkpoint (bad magic)"

(* Open [path], check its magic and version lines, and read the
   payload from the channel with [payload]. *)
let read_header path payload =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let head =
            really_input_string ic
              (min (in_channel_length ic)
                 (String.length magic + String.length version_line))
          in
          Option.iter (invalid path "%s") (prefix_error head 0);
          match payload ic with
          | v -> Some v
          | exception _ -> invalid path "corrupt checkpoint payload")

let load path = read_header path Marshal.from_channel

(* --- journaled checkpoints ---------------------------------------------

   A journaled checkpoint is a header file plus [FILE.journal]:
   marshalled records, appended and never rewritten.  The header holds
   the checkpoint and the journal [mark]: how many records (and bytes)
   of the journal it vouches for.  A save appends only the records
   that arrived since the previous save, then replaces the header; a
   crash between the two leaves the old header, whose mark excludes
   the new tail, so a load reads exactly the prefix the header names
   and the next save cuts the tail off before appending.  Records are
   marshalled before the journal is opened, and a save that raises
   part-way (a full disk) leaves the header as it was, so whatever it
   did append is such a tail too.

   The header is replaced in place rather than by tmp + rename: a
   rename costs a metadata commit (on ext4 a forced writeback too,
   ~0.2 ms), which a monitor saving every cursor on every poll cannot
   afford.  It holds two 4 KiB slots, each the magic and version lines,
   an MD5 of its body and the body; save [n] overwrites slot
   [(n - 1) mod 2], so the other slot keeps save [n - 1] intact, and a
   load takes the valid slot with the higher save count.  A process
   killed mid-write therefore tears at most the slot being written,
   which its digest exposes.  The first save of a fresh checkpoint
   writes the whole file by tmp + rename, so a stale file never
   leaves an old slot behind. *)

type mark = { saves : int; records : int; bytes : int }

let empty_mark = { saves = 0; records = 0; bytes = 0 }
let journal_file path = path ^ ".journal"
let slot_size = 4096

let append_journal path ~(mark : mark) records =
  let file = journal_file path in
  let data = String.concat "" (List.map (fun r -> Marshal.to_string r []) records) in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < mark.bytes then
        invalid file "journal holds %d bytes but its header records %d" size
          mark.bytes;
      if size > mark.bytes then Unix.ftruncate fd mark.bytes;
      ignore (Unix.lseek fd mark.bytes Unix.SEEK_SET);
      write_all fd data;
      written (String.length data);
      {
        mark with
        records = mark.records + List.length records;
        bytes = mark.bytes + String.length data;
      })

(* A slot's bytes: magic, version, MD5 of the body, then the body (the
   mark and the marshalled checkpoint). *)
let slot_of (mark : mark) state =
  let body = Marshal.to_string (mark, state) [] in
  let slot = String.concat "" [ magic; version_line; Digest.string body; body ] in
  if String.length slot > slot_size then
    invalid_arg "Checkpoint.save_journaled: header state over 4 KiB";
  slot

(* The mark and marshalled checkpoint the slot at [off] holds, or why
   it holds none. *)
let parse_slot s off =
  match prefix_error s off with
  | Some e -> Error e
  | None -> (
      let d = off + String.length magic + String.length version_line in
      let b = d + 16 in
      let torn = Error "torn header slot" in
      match Marshal.total_size (Bytes.unsafe_of_string s) b with
      | exception _ -> torn
      | len when b + len > min (String.length s) (off + slot_size) -> torn
      | len ->
          let body = String.sub s b len in
          if Digest.string body <> String.sub s d 16 then torn
          else Ok (Marshal.from_string body 0 : mark * string))

let save_journaled path t ~journal records =
  (* A state Marshal refuses raises before the journal is touched. *)
  let state = Marshal.to_string t [] in
  let appended =
    if records = [] then journal else append_journal path ~mark:journal records
  in
  let mark = { appended with saves = journal.saves + 1 } in
  let slot = slot_of mark state in
  if journal.saves = 0 then write_atomic path [ slot ]
  else begin
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.lseek fd ((mark.saves - 1) mod 2 * slot_size) Unix.SEEK_SET);
        write_all fd slot);
    written (String.length slot)
  end;
  mark

let read_journal path (mark : mark) =
  let file = journal_file path in
  if mark.bytes = 0 then []
  else
    match open_in_bin file with
    | exception Sys_error _ ->
        invalid file "missing; its header records %d bytes" mark.bytes
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            if in_channel_length ic < mark.bytes then
              invalid file "shorter than the %d bytes its header records"
                mark.bytes;
            let rec go n acc =
              let pos = pos_in ic in
              if pos > mark.bytes then
                invalid file "a record overruns the %d bytes its header records"
                  mark.bytes
              else if pos = mark.bytes then
                if n = mark.records then List.rev acc
                else
                  invalid file "holds %d records where its header records %d" n
                    mark.records
              else
                match Marshal.from_channel ic with
                | r -> go (n + 1) (r :: acc)
                | exception _ -> invalid file "corrupt record at byte %d" pos
            in
            go 0 [])

let load_journaled path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            really_input_string ic (min (in_channel_length ic) (2 * slot_size)))
      in
      let slots =
        List.filter_map
          (fun i ->
            if i * slot_size < String.length s then Some (parse_slot s (i * slot_size))
            else None)
          [ 0; 1 ]
      in
      let newest =
        List.fold_left
          (fun best slot ->
            match (best, slot) with
            | Some ((b : mark), _), Ok (m, _) when b.saves >= m.saves -> best
            | _, Ok v -> Some v
            | _, Error _ -> best)
          None slots
      in
      match (newest, slots) with
      | Some (mark, state), _ ->
          let t = Marshal.from_string state 0 in
          Some (t, mark, read_journal path mark)
      | None, Error e :: _ -> invalid path "%s" e
      | None, _ -> invalid path "not a checkpoint (file shorter than the header)")

(* --- stale cursor handling ---------------------------------------------

   Parallel runs keep one cursor per shard ([path.shard<k>]) and fetch
   runs one per log ([path.fetch<k>]).  When a later run uses fewer
   shards/logs, the high-numbered files are never reused — left behind
   they look like live state and confuse both operators and resume
   logic, so callers detect them up front (warn) and delete them once a
   run completes successfully.  A stale [.fetch<k>] header's
   [.fetch<k>.journal] is stale with it.

   The two families have independent lifetimes: a generate-sourced run
   owns only the shard cursors, and its shard count says nothing about
   whether a [.fetch<k>] file is live resume state from an interrupted
   fetch.  Callers therefore pass one active count per family;
   [active_fetch = None] means "this run does not own fetch cursors —
   leave every one of them alone" (and symmetrically for
   [active_shards]). *)

let cursor_suffixes = [ "shard"; "fetch" ]

let stale_cursors path ~active_shards ~active_fetch =
  let dir = Filename.dirname path and base = Filename.basename path in
  let active_of = function
    | "shard" -> active_shards
    | "fetch" -> active_fetch
    | _ -> None
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             List.find_map
               (fun suffix ->
                 let prefix = base ^ "." ^ suffix in
                 if
                   String.length name > String.length prefix
                   && String.sub name 0 (String.length prefix) = prefix
                 then
                   let rest =
                     String.sub name (String.length prefix)
                       (String.length name - String.length prefix)
                   in
                   (* A journaled cursor's journal goes with its header. *)
                   let rest =
                     if Filename.check_suffix rest ".journal" then
                       Filename.chop_suffix rest ".journal"
                     else rest
                   in
                   match (active_of suffix, int_of_string_opt rest) with
                   | Some active, Some k when k >= active ->
                       Some (Filename.concat dir name)
                   | _ -> None
                 else None)
               cursor_suffixes)
      |> List.sort compare

let remove_stale path ~active_shards ~active_fetch =
  let stale = stale_cursors path ~active_shards ~active_fetch in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) stale;
  stale
