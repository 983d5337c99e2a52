let magic = "USTORESEG1\n"
let magic_len = String.length magic

let appends = Obs.Registry.counter ~help:"Records appended to store segments" "unicert_store_appends_total"
let fsyncs = Obs.Registry.counter ~help:"fsync calls issued by the store" "unicert_store_fsync_total"

let set_u32be b pos n =
  Bytes.set b pos (Char.unsafe_chr ((n lsr 24) land 0xFF));
  Bytes.set b (pos + 1) (Char.unsafe_chr ((n lsr 16) land 0xFF));
  Bytes.set b (pos + 2) (Char.unsafe_chr ((n lsr 8) land 0xFF));
  Bytes.set b (pos + 3) (Char.unsafe_chr (n land 0xFF))

let u32be n =
  let b = Bytes.create 4 in
  set_u32be b 0 n;
  Bytes.unsafe_to_string b

let read_u32be s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

type writer = {
  oc : out_channel;
  headers : Buffer.t;  (* concatenated (len, crc) pairs, 8 bytes per record *)
  mutable n : int;
  mutable poisoned : bool;
}

let seal_digest headers n = Ucrypto.Sha256.digest (headers ^ u32be n)

let create path =
  let oc = open_out_bin path in
  output_string oc magic;
  { oc; headers = Buffer.create 256; n = 0; poisoned = false }

(* Apply a Chaos decision to a fully built frame.  On a torn write the
   prefix is flushed to the OS and the writer poisoned before the
   simulated kill, so nothing written later can repair the tear. *)
let write_frame w ~op frame =
  match Chaos.plan_write ~op ~len:(String.length frame) with
  | Chaos.Pass -> output_string w.oc frame
  | Chaos.Flip { offset } ->
      let b = Bytes.of_string frame in
      Bytes.set b offset (Char.chr (Char.code (Bytes.get b offset) lxor 0x10));
      output_bytes w.oc b
  | Chaos.Prefix { len; crash } ->
      output_string w.oc (String.sub frame 0 len);
      flush w.oc;
      if crash then (
        w.poisoned <- true;
        Obs.Trace.instant ~cat:"store" ("chaos.torn:" ^ op);
        raise (Chaos.Crashed ("torn:" ^ op)))

let guard w f =
  if w.poisoned then ()
  else
    try f ()
    with Chaos.Crashed _ as e ->
      w.poisoned <- true;
      raise e

let append w payload =
  guard w (fun () ->
      let plen = String.length payload in
      let b = Bytes.create (9 + plen) in
      Bytes.set b 0 'R';
      set_u32be b 1 plen;
      set_u32be b 5 (Crc32.string payload);
      Bytes.blit_string payload 0 b 9 plen;
      let frame = Bytes.unsafe_to_string b in
      write_frame w ~op:"segment.append" frame;
      (* The writer's view of the segment tracks planned frames even
         when Chaos shorted the write — that is the lying-disk model;
         the divergence is what fsck must catch. *)
      Buffer.add_substring w.headers frame 1 8;
      w.n <- w.n + 1;
      Obs.Counter.inc appends;
      Chaos.point "segment.append.after")

let sync w =
  if not w.poisoned then (
    flush w.oc;
    Unix.fsync (Unix.descr_of_out_channel w.oc);
    Obs.Counter.inc fsyncs)

(* The digest is taken once, and returned even when a poisoned writer
   writes nothing. *)
let seal w =
  let digest = seal_digest (Buffer.contents w.headers) w.n in
  guard w (fun () ->
      Chaos.point "segment.seal.before";
      write_frame w ~op:"segment.seal" ("S" ^ u32be w.n ^ digest);
      flush w.oc;
      Unix.fsync (Unix.descr_of_out_channel w.oc);
      Obs.Counter.inc fsyncs;
      Chaos.point "segment.seal.after");
  Ucrypto.Sha256.to_hex digest

let close w =
  if w.poisoned then (try Stdlib.close_out_noerr w.oc with _ -> ())
  else close_out w.oc

type problem =
  | Bad_header
  | Torn_tail of { offset : int }
  | Bad_frame of { offset : int }
  | Bad_crc of { record : int; offset : int }
  | Bad_seal
  | Trailing of { offset : int }

let problem_name = function
  | Bad_header -> "bad_header"
  | Torn_tail _ -> "torn_tail"
  | Bad_frame _ -> "bad_frame"
  | Bad_crc _ -> "bad_crc"
  | Bad_seal -> "bad_seal"
  | Trailing _ -> "trailing_garbage"

let describe_problem = function
  | Bad_header -> "segment header magic mismatch"
  | Torn_tail { offset } -> Printf.sprintf "torn record tail at byte %d" offset
  | Bad_frame { offset } -> Printf.sprintf "unknown frame tag at byte %d" offset
  | Bad_crc { record; offset } ->
      Printf.sprintf "CRC mismatch on record %d at byte %d" record offset
  | Bad_seal -> "seal footer does not match records"
  | Trailing { offset } -> Printf.sprintf "trailing bytes after seal at %d" offset

type scan = {
  data : string;
  starts : int array;
  ends : int array;
  count : int;
  sealed : bool;
  good_bytes : int;
  seal_hex : string;
  problem : problem option;
}

let payload sc k = String.sub sc.data sc.starts.(k) (sc.ends.(k) - sc.starts.(k))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Record offsets, gathered while the record count is still unknown. *)
let push a k v =
  let a = if k < Array.length a then a else Array.append a (Array.make (Array.length a) 0) in
  Array.unsafe_set a k v;
  a

let scan path =
  match read_file path with
  | exception Sys_error e -> Error e
  | s ->
      let len = String.length s in
      (* The seal digest absorbs each record's (len, crc) header in
         place; [seal_of] finishes it, once per scan. *)
      let headers = Ucrypto.Sha256.init () in
      let seal_of n =
        Ucrypto.Sha256.update headers (u32be n);
        Ucrypto.Sha256.final headers
      in
      let starts = ref (Array.make 64 0) and ends = ref (Array.make 64 0) in
      let finish ~pos ~n ~sealed ?(digest = seal_of n) problem =
        Ok
          {
            data = s;
            starts = Array.sub !starts 0 n;
            ends = Array.sub !ends 0 n;
            count = n;
            sealed;
            good_bytes = pos;
            seal_hex = Ucrypto.Sha256.to_hex digest;
            problem;
          }
      in
      let rec loop pos n =
        if pos = len then finish ~n ~pos ~sealed:false None
        else
          match s.[pos] with
          | 'R' ->
              if pos + 9 > len then
                finish ~n ~pos ~sealed:false (Some (Torn_tail { offset = pos }))
              else
                let plen = read_u32be s (pos + 1) in
                let crc = read_u32be s (pos + 5) in
                if pos + 9 + plen > len then
                  finish ~n ~pos ~sealed:false (Some (Torn_tail { offset = pos }))
                else if Crc32.sub s ~pos:(pos + 9) ~len:plen <> crc then
                  finish ~n ~pos ~sealed:false
                    (Some (Bad_crc { record = n; offset = pos }))
                else (
                  Ucrypto.Sha256.update_sub headers s ~off:(pos + 1) ~len:8;
                  let stop = pos + 9 + plen in
                  starts := push !starts n (pos + 9);
                  ends := push !ends n stop;
                  loop stop (n + 1))
          | 'S' ->
              if pos + 37 > len then
                finish ~n ~pos ~sealed:false (Some (Torn_tail { offset = pos }))
              else
                let fcount = read_u32be s (pos + 1) in
                let digest = seal_of n in
                if fcount <> n || not (String.equal (String.sub s (pos + 5) 32) digest) then
                  finish ~n ~pos ~sealed:false ~digest (Some Bad_seal)
                else if pos + 37 < len then
                  finish ~n ~pos:(pos + 37) ~sealed:true ~digest
                    (Some (Trailing { offset = pos + 37 }))
                else finish ~n ~pos:(pos + 37) ~sealed:true ~digest None
          | _ -> finish ~n ~pos ~sealed:false (Some (Bad_frame { offset = pos }))
      in
      if not (String.starts_with ~prefix:magic s) then
        finish ~pos:0 ~n:0 ~sealed:false (Some Bad_header)
      else loop magic_len 0

let reopen path =
  match scan path with
  | Error e -> invalid_arg (Printf.sprintf "Segment.reopen %s: %s" path e)
  | Ok { sealed = true; _ } -> invalid_arg (Printf.sprintf "Segment.reopen %s: sealed" path)
  | Ok { problem = Some p; _ } ->
      invalid_arg (Printf.sprintf "Segment.reopen %s: %s" path (describe_problem p))
  | Ok sc ->
      (* Rebuild the seal-digest accumulator from the intact records. *)
      let headers = Buffer.create (8 * sc.count + 8) in
      Array.iter (fun start -> Buffer.add_substring headers sc.data (start - 8) 8) sc.starts;
      let oc = open_out_gen [ Open_wronly; Open_binary; Open_append ] 0o644 path in
      { oc; headers; n = sc.count; poisoned = false }

let truncate path n = Unix.truncate path n
