(* The on-disk store: crash-point recovery matrix, fsck detection and
   repair, warm-replay byte identity, persistent index lookups, and
   incremental recompute after a lint-set change. *)

let check = Alcotest.check

let scale = 96
let seed = 11

let report t = Format.asprintf "%a" Unicert.Report.all t

let baseline = lazy (report (Unicert.Pipeline.run ~scale ~seed ~jobs:1 ()))

(* SHA-256 of the rendered report at (scale, seed). *)
let golden_report =
  "54e51ca40c8fb479fb96fb4b3628314f046bebe2aabdfa5d56c4217145847951"

let fresh_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "unicert-store-%s-%d" name (Unix.getpid ()))
  in
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let run_store ?(jobs = 1) dir =
  Unicert.Pipeline.run ~scale ~seed ~jobs ~store:dir ()

(* --- cold build / warm replay byte identity --- *)

let test_cold_warm_identity () =
  let dir = fresh_dir "coldwarm" in
  let cold = report (run_store ~jobs:2 dir) in
  check Alcotest.string "cold store build matches the storeless report"
    (Lazy.force baseline) cold;
  let warm = report (run_store ~jobs:1 dir) in
  check Alcotest.string "warm replay matches" (Lazy.force baseline) warm;
  (* A warm run must not rewrite anything: the committed content
     address is stable. *)
  let addr () = Store.Db.meta (Store.Db.open_ro ~dir) "content" in
  let a1 = addr () in
  ignore (run_store ~jobs:4 dir);
  check
    Alcotest.(option string)
    "content address stable across warm replays" a1 (addr ());
  check Alcotest.bool "content address present" true (a1 <> None);
  rm_rf dir

(* --- the crash-point recovery matrix --- *)

let crash_case ~point ~occurrence ~jobs =
  let dir = fresh_dir (Printf.sprintf "crash-%s-%d-%d" point occurrence jobs) in
  Fun.protect
    ~finally:(fun () -> Store.Chaos.disarm ())
    (fun () ->
      Store.Chaos.arm_crash ~point ~occurrence;
      (match run_store ~jobs dir with
      | _ ->
          Alcotest.failf "%s#%d jobs=%d: build did not crash" point occurrence
            jobs
      | exception Store.Chaos.Crashed _ -> ());
      Store.Chaos.disarm ();
      (* fsck must treat the crash leftovers as expected input: never
         raise, and never claim an unusable store (at worst the store
         is absent — the crash predated the first durable byte — or
         empty-but-valid, or degraded to its intact prefix). *)
      let r = Store.Db.fsck ~dir () in
      check Alcotest.bool
        (Printf.sprintf "%s#%d jobs=%d: fsck finds the store usable" point
           occurrence jobs)
        true
        (r.Store.Db.usable || r.Store.Db.store_state = `Absent);
      (* Rerunning the same command recovers the intact prefix and
         completes to the byte-identical report. *)
      let t = run_store ~jobs dir in
      check Alcotest.string
        (Printf.sprintf "%s#%d jobs=%d: recovered report identical" point
           occurrence jobs)
        (Lazy.force baseline) (report t);
      check Alcotest.bool
        (Printf.sprintf "%s#%d jobs=%d: store complete after recovery" point
           occurrence jobs)
        true
        (Store.Db.complete (Store.Db.open_ro ~dir)));
  rm_rf dir

let test_crash_matrix () =
  List.iter
    (fun point ->
      List.iter (fun jobs -> crash_case ~point ~occurrence:1 ~jobs) [ 1; 2; 4 ])
    Store.Chaos.crash_points

let test_crash_matrix_second_occurrence () =
  (* Later occurrences kill mid-inventory (a second span's seal, the
     final manifest commit after the building one) — the states a
     first-occurrence kill never reaches. *)
  List.iter
    (fun point ->
      List.iter (fun jobs -> crash_case ~point ~occurrence:2 ~jobs) [ 1; 4 ])
    [ "segment.seal.before"; "segment.seal.after"; "manifest.rename.before";
      "manifest.rename.after" ]

(* --- fsck detects every injected corruption --- *)

let build_complete dir = ignore (run_store ~jobs:2 dir)

let test_fsck_detects_bit_flips () =
  let dir = fresh_dir "fsck-flip" in
  build_complete dir;
  let victims =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".seg" || Filename.check_suffix f ".idx")
    |> List.sort compare
  in
  check Alcotest.bool "several sealed files to corrupt" true
    (List.length victims >= 4);
  List.iteri
    (fun n victim ->
      let path = Filename.concat dir victim in
      let bytes =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      ignore (Store.Chaos.flip_bit_in_file ~seed:(100 + n) path);
      let r = Store.Db.fsck ~dir () in
      check Alcotest.bool
        (victim ^ ": flip detected")
        true
        (List.exists
           (fun (i : Store.Db.issue) -> i.Store.Db.file = victim)
           r.Store.Db.issues);
      check Alcotest.bool (victim ^ ": store stays usable") true
        r.Store.Db.usable;
      (* Undo so each file is tested in isolation. *)
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc)
    victims;
  check Alcotest.int "pristine again: no issues"
    0
    (List.length (Store.Db.fsck ~dir ()).Store.Db.issues);
  rm_rf dir

let test_fsck_repair_then_rebuild () =
  let dir = fresh_dir "fsck-repair" in
  build_complete dir;
  (* Corrupt one cert segment: repair must quarantine the pair (exit-4
     territory: intact data remains), and a rebuild regenerates only
     the lost span, landing on the byte-identical report. *)
  let seg =
    Sys.readdir dir |> Array.to_list
    |> List.find (fun f ->
           String.length f > 6 && String.sub f 0 6 = "certs-"
           && Filename.check_suffix f ".seg")
  in
  ignore (Store.Chaos.flip_bit_in_file ~seed:7 (Filename.concat dir seg));
  let r = Store.Db.fsck ~repair:true ~dir () in
  check Alcotest.bool "repaired" true r.Store.Db.repaired;
  check Alcotest.bool "usable after repair (never total loss)" true
    r.Store.Db.usable;
  check Alcotest.bool "quarantined pair logged" true
    (Sys.file_exists (Filename.concat dir "store-quarantine.jsonl"));
  check Alcotest.bool "segment moved aside" true
    (Sys.file_exists (Filename.concat dir (seg ^ ".quarantined")));
  let spans_left = Store.Db.spans (Store.Db.open_ro ~dir) in
  check Alcotest.int "one intact span remains" 1 (List.length spans_left);
  let t = run_store ~jobs:2 dir in
  check Alcotest.string "rebuild after repair is byte-identical"
    (Lazy.force baseline) (report t);
  rm_rf dir

let test_fsck_absent () =
  let r = Store.Db.fsck ~dir:"/nonexistent/unicert-store" () in
  check Alcotest.bool "absent store" true (r.Store.Db.store_state = `Absent);
  check Alcotest.bool "absent store is not usable" false r.Store.Db.usable

(* --- persistent indexes --- *)

let test_indexes () =
  let dir = fresh_dir "indexes" in
  build_complete dir;
  let db = Store.Db.open_ro ~dir in
  let load name =
    match Store.Db.load_index db name with
    | Ok entries -> entries
    | Error e -> Alcotest.failf "index %s: %s" name e
  in
  let issuer = load "issuer" in
  let covered =
    List.concat_map snd issuer |> List.sort_uniq compare |> List.length
  in
  check Alcotest.int "issuer index covers every certificate" scale covered;
  List.iter
    (fun name ->
      List.iter
        (fun (key, ids) ->
          check Alcotest.bool (name ^ ": key non-empty") true (key <> "");
          List.iter
            (fun i ->
              check Alcotest.bool
                (Printf.sprintf "%s: id %d in range" name i)
                true
                (i >= 0 && i < scale))
            ids)
        (load name))
    [ "issuer"; "lint"; "flaw"; "domain"; "ulabel" ];
  (* The domain index keys SAN labels: looking one up returns certs
     whose index the issuer index also knows. *)
  (match load "domain" with
  | [] -> Alcotest.fail "domain index is empty"
  | (_, ids) :: _ ->
      check Alcotest.bool "domain hit non-empty" true (ids <> []));
  check Alcotest.bool "unknown index is an error" true
    (Result.is_error (Store.Db.load_index db "nope"));
  rm_rf dir

(* --- incremental recompute after a lint-set change --- *)

let test_incremental_recompute () =
  let dir = fresh_dir "incremental" in
  build_complete dir;
  let db = Store.Db.open_ro ~dir in
  let man = Store.Db.manifest db in
  (* Rewrite the manifest as if this store had been built by a binary
     that lacked the last registered lint: the next run must take the
     incremental path (parse DER, run only the missing lint, republish
     rows + indexes) and still land on the byte-identical report. *)
  let all_lints = String.split_on_char ';' man.Store.Manifest.lints in
  let older = List.filteri (fun i _ -> i < List.length all_lints - 1) all_lints in
  Store.Db.commit db
    { man with Store.Manifest.lints = String.concat ";" older };
  let man' = Store.Db.manifest (Store.Db.open_ro ~dir) in
  check Alcotest.bool "manifest now claims an older lint set" true
    (man'.Store.Manifest.lints <> man.Store.Manifest.lints);
  let t = run_store ~jobs:1 dir in
  check Alcotest.string "incremental recompute is byte-identical"
    (Lazy.force baseline) (report t);
  check Alcotest.string "incremental recompute matches the golden digest"
    golden_report (Ucrypto.Sha256.hex (report t));
  let man'' = Store.Db.manifest (Store.Db.open_ro ~dir) in
  check Alcotest.string "manifest lint set restored to the full signature"
    man.Store.Manifest.lints man''.Store.Manifest.lints;
  check Alcotest.bool "store complete again" true
    (Store.Db.complete (Store.Db.open_ro ~dir));
  (* Old rows columns must have been garbage-collected by the commit.
     (When the recomputed lint fingerprint equals the original one, the
     replacement column is written under a `.seg.new` name to dodge the
     live file — either spelling counts, but only one per span may
     survive.) *)
  let stray_rows =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 5 && String.sub f 0 5 = "rows-"
           && (Filename.check_suffix f ".seg"
              || Filename.check_suffix f ".seg.new"))
  in
  check Alcotest.int "exactly one rows column per span" 2
    (List.length stray_rows);
  rm_rf dir

(* --- fetch-sourced store builds --- *)

let fetch_cfg =
  { Ctlog.Fetch.default_cfg with
    Ctlog.Fetch.logs = 4; net_seed = Some 41; fault_rate = 0.1; page_cap = 8 }

let test_fetch_store () =
  let source = Unicert.Pipeline.Fetch fetch_cfg in
  let plain = report (Unicert.Pipeline.run ~scale ~seed ~source ()) in
  List.iter
    (fun jobs ->
      let dir = fresh_dir (Printf.sprintf "fetch-%d" jobs) in
      let run () =
        report (Unicert.Pipeline.run ~scale ~seed ~jobs ~source ~store:dir ())
      in
      check Alcotest.string
        (Printf.sprintf "cold fetch-sourced build at jobs=%d" jobs)
        plain (run ());
      let addr () = Store.Db.meta (Store.Db.open_ro ~dir) "content" in
      let a1 = addr () in
      check Alcotest.bool "content address present" true (a1 <> None);
      check Alcotest.string
        (Printf.sprintf "warm replay of the jobs=%d fetch build" jobs)
        plain (run ());
      check
        Alcotest.(option string)
        "content address stable across warm replays" a1 (addr ());
      check Alcotest.int
        (Printf.sprintf "fsck clean after the jobs=%d fetch build" jobs)
        0
        (List.length (Store.Db.fsck ~dir ()).Store.Db.issues);
      rm_rf dir)
    [ 1; 2 ]

(* --- identity pinning --- *)

let test_identity_mismatch () =
  let dir = fresh_dir "identity" in
  build_complete dir;
  (match
     Unicert.Pipeline.run ~scale:(scale * 2) ~seed ~jobs:1 ~store:dir ()
   with
  | _ -> Alcotest.fail "scale mismatch did not raise Store_error"
  | exception Store.Db.Store_error _ -> ());
  (* The original identity still works. *)
  check Alcotest.string "store unharmed by the rejected open"
    (Lazy.force baseline)
    (report (run_store dir));
  rm_rf dir

let test_open_ro_mid_build () =
  (* An adoptable in-flight build — valid identity on disk, no manifest
     committed yet — must open read-only at its committed prefix (here:
     empty) instead of failing.  This is the monitor daemon's reader
     path: queries run against whatever prefix is durable while ingest
     is still appending. *)
  let dir = fresh_dir "openro-midbuild" in
  Fun.protect
    ~finally:(fun () -> Store.Chaos.disarm ())
    (fun () ->
      (* Occurrence 1 of manifest.rename is the identity file at
         create; occurrence 2 is the manifest commit itself — crash
         there and the store is all data, no manifest. *)
      Store.Chaos.arm_crash ~point:"manifest.rename.before" ~occurrence:2;
      (match run_store ~jobs:1 dir with
      | _ -> Alcotest.fail "build did not crash"
      | exception Store.Chaos.Crashed _ -> ());
      Store.Chaos.disarm ();
      let db = Store.Db.open_ro ~dir in
      check Alcotest.bool "mid-build store reads as building" true
        (not (Store.Db.complete db));
      check Alcotest.int "committed prefix is empty" 0
        (List.length (Store.Db.spans db));
      let pairs = ref 0 in
      Store.Db.iter_pairs db (fun _ _ -> incr pairs);
      check Alcotest.int "no committed pairs readable" 0 !pairs;
      (* The read-only open must not have disturbed the crash
         leftovers: the build is still adoptable and completes to the
         byte-identical report. *)
      check Alcotest.string "build still adoptable after read-only open"
        (Lazy.force baseline)
        (report (run_store ~jobs:1 dir)));
  rm_rf dir

(* --- CRC-32 kernel --- *)

(* Bit-at-a-time CRC-32 (IEEE, reflected): the oracle for the kernel. *)
let crc_bitwise s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc_reference () =
  let rng = Random.State.make [| 0x3243; 0xf6a8 |] in
  (* Every length 0..2000 covers every tail length 0..7 behind the
     eight-byte steps; the slice starts at a random offset 0..15. *)
  for len = 0 to 2000 do
    let pad = Random.State.int rng 16 in
    let s =
      String.init (len + pad + Random.State.int rng 9) (fun _ ->
          Char.chr (Random.State.int rng 256))
    in
    let want = crc_bitwise s ~pos:pad ~len in
    if Store.Crc32.sub s ~pos:pad ~len <> want then
      Alcotest.failf "CRC-32 of %d bytes at offset %d differs from the bitwise reference" len pad;
    if Store.Crc32.string s <> crc_bitwise s ~pos:0 ~len:(String.length s) then
      Alcotest.failf "CRC-32 of a %d-byte string differs from the bitwise reference"
        (String.length s)
  done;
  check Alcotest.int "CRC-32(\"123456789\") is the standard check value" 0xCBF43926
    (Store.Crc32.string "123456789");
  check Alcotest.int "CRC-32 of nothing" 0 (Store.Crc32.string "");
  check Alcotest.int "empty slice at the end" 0 (Store.Crc32.sub "abc" ~pos:3 ~len:0)

let test_crc_range () =
  List.iter
    (fun (pos, len) ->
      match Store.Crc32.sub "abcdefgh" ~pos ~len with
      | _ -> Alcotest.failf "slice pos %d len %d of 8 bytes did not raise" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, -1); (0, 9); (8, 1); (9, 0); (4, 5); (max_int, 1); (1, max_int) ]

(* A segment written from fixed payloads, pinned byte for byte: a
   store written before the kernel replaced the table loop opens
   unchanged. *)
let segment_payloads =
  [ ""; "a"; "hello\tworld\n"; String.make 1000 'x'; String.init 256 Char.chr;
    String.init 4099 (fun i -> Char.chr (((i * 7) + 3) land 0xFF)) ]

let golden_segment_sha = "c6c9eff7c4b11714481be76fb6ee2b4c957e71c21bd8e9e509bdd8dc136e2c71"
let golden_segment_seal = "b10f68c55688512e24a37783033bd20a64c4aaec1d705e1cd4cd817ce2c663f8"

let test_segment_bytes () =
  let path = Filename.temp_file "unicert-segment" ".seg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Store.Segment.create path in
      List.iter (Store.Segment.append w) segment_payloads;
      let seal = Store.Segment.seal w in
      Store.Segment.close w;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      check Alcotest.string "segment file SHA-256" golden_segment_sha (Ucrypto.Sha256.hex bytes);
      check Alcotest.string "writer seal" golden_segment_seal seal;
      match Store.Segment.scan path with
      | Error e -> Alcotest.fail e
      | Ok sc ->
          check Alcotest.bool "sealed, no problem" true (sc.sealed && sc.problem = None);
          check Alcotest.string "scan seal" golden_segment_seal sc.seal_hex;
          check Alcotest.int "good bytes" (String.length bytes) sc.good_bytes;
          check
            Alcotest.(list string)
            "payloads read back in place" segment_payloads
            (List.init sc.count (Store.Segment.payload sc)))

(* --- row codec --- *)

(* The row decoder as it stood before the one-cursor rewrite, kept
   as the oracle: [split_on_char] framing and [int_of_string] escapes.
   It returns the fields rather than a row, which is abstract. *)
module Oracle = struct
  let row_unescape s =
    if not (String.contains s '%') then Ok s
    else
      let b = Buffer.create (String.length s) in
      let n = String.length s in
      let rec go i =
        if i >= n then Ok (Buffer.contents b)
        else if s.[i] = '%' then
          if i + 2 < n then (
            match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
            | Some c ->
                Buffer.add_char b (Char.chr c);
                go (i + 3)
            | None -> Error "bad escape")
          else Error "truncated escape"
        else (
          Buffer.add_char b s.[i];
          go (i + 1))
      in
      go 0

  let decode_list s =
    if s = "" then Ok []
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match row_unescape x with
            | Ok v -> go (v :: acc) rest
            | Error e -> Error e)
      in
      go [] (String.split_on_char ',' s)

  let decode_row s =
    let ( let* ) = Result.bind in
    let fields =
      match String.split_on_char '\t' s with
      | [ idx; org; issued; flags; days; uf; nc; doms ] ->
          Ok (idx, org, issued, flags, days, uf, nc, doms, "", "")
      | [ idx; org; issued; flags; days; uf; nc; doms; cns; attrs ] ->
          Ok (idx, org, issued, flags, days, uf, nc, doms, cns, attrs)
      | _ -> Error "wrong field count"
    in
    let* idx, org, issued, flags, days, uf, nc, doms, cns, attrs = fields in
    let* index = Option.to_result ~none:"bad index" (int_of_string_opt idx) in
    let* org = row_unescape org in
    let* issued = Asn1.Time.of_generalized issued in
    let* () = if String.length flags = 7 then Ok () else Error "bad flags" in
    let* days = Option.to_result ~none:"bad validity" (int_of_string_opt days) in
    let* uf = decode_list uf in
    let* nc = decode_list nc in
    let* doms = decode_list doms in
    let* cns = decode_list cns in
    let* attrs = decode_list attrs in
    let flags = String.map (fun c -> if c = '1' then '1' else '0') flags in
    Ok (index, org, issued, flags, days, uf, nc, doms, cns, attrs)
end

(* The row encoding, written out independently of [encode_row]. *)
let escape s =
  String.concat ""
    (List.map
       (fun c ->
         if String.contains "%\t\n\r," c then Printf.sprintf "%%%02X" (Char.code c)
         else String.make 1 c)
       (List.of_seq (String.to_seq s)))

let encode_fields (index, org, issued, flags, days, uf, nc, doms, cns, attrs) =
  let l = List.map escape in
  String.concat "\t"
    ([ string_of_int index; escape org; Asn1.Time.to_generalized issued; flags; string_of_int days ]
    @ List.map (String.concat ",") [ l uf; l nc; l doms; l cns; l attrs ])

let agrees s =
  match (Unicert.Pipeline.decode_row s, Oracle.decode_row s) with
  | Error a, Error b -> a = b
  | Ok row, Ok ((index, org, _, _, _, _, nc, doms, cns, attrs) as fields) ->
      Unicert.Pipeline.encode_row row = encode_fields fields
      && Unicert.Pipeline.row_index row = index
      && Unicert.Pipeline.row_org row = org
      && Unicert.Pipeline.row_nc row = nc
      && Unicert.Pipeline.row_domains row = doms
      && Unicert.Pipeline.row_cns row = cns
      && Unicert.Pipeline.row_attrs row = attrs
  | Ok _, Error _ | Error _, Ok _ -> false

(* Text over the bytes the codec escapes, '%'-escape look-alikes and
   non-ASCII UTF-8. *)
let text_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 8)
         (oneofl
            [ "a"; "Z"; "7"; "-"; "."; " "; "\t"; ","; "%"; "\n"; "\r"; "%41"; "_"; "é"; "中";
              "\xff" ])))

let fields_gen =
  QCheck.Gen.(
    let text_list = list_size (int_bound 4) text_gen in
    let date =
      map
        (fun ((y, mo, d), (h, mi, se)) -> Asn1.Time.make ~hour:h ~minute:mi ~second:se y mo d)
        (pair
           (triple (int_range 1950 2049) (int_range 1 12) (int_range 1 28))
           (triple (int_bound 23) (int_bound 59) (int_bound 59)))
    in
    let flags = string_size ~gen:(oneofl [ '0'; '1' ]) (return 7) in
    (* A one-empty-element list encodes like the empty list. *)
    let canon l = if l = [ "" ] then [] else l in
    map3
      (fun (index, org, issued) (flags, days) ((uf, nc, doms, cns), attrs) ->
        (index, org, issued, flags, days, canon uf, canon nc, canon doms, canon cns, canon attrs))
      (triple (int_range (-5) 1_000_000) text_gen date)
      (pair flags (int_range (-400) 40_000))
      (pair (quad text_list text_list text_list text_list) text_list))

let print_fields f = String.escaped (encode_fields f)

let test_row_roundtrip =
  QCheck.Test.make ~name:"row codec: encode/decode round trip" ~count:1000
    (QCheck.make ~print:print_fields fields_gen)
    (fun ((index, org, _, _, _, _, nc, doms, cns, attrs) as f) ->
      let s = encode_fields f in
      match Unicert.Pipeline.decode_row s with
      | Error e -> QCheck.Test.fail_reportf "%S did not decode: %s" s e
      | Ok row ->
          Unicert.Pipeline.encode_row row = s
          && Unicert.Pipeline.row_index row = index
          && Unicert.Pipeline.row_org row = org
          && Unicert.Pipeline.row_nc row = nc
          && Unicert.Pipeline.row_domains row = doms
          && Unicert.Pipeline.row_cns row = cns
          && Unicert.Pipeline.row_attrs row = attrs)

(* Encoded rows with a few bytes replaced, inserted or deleted, biased
   towards the bytes that frame a row. *)
let mangled_gen =
  QCheck.Gen.(
    let edit s =
      map3
        (fun kind at c ->
          let n = String.length s in
          let at = if n = 0 then 0 else at mod (n + 1) in
          let pre = String.sub s 0 at in
          let post k = String.sub s (min n (at + k)) (n - min n (at + k)) in
          match kind with
          | 0 -> pre ^ String.make 1 c ^ post 1
          | 1 -> pre ^ String.make 1 c ^ post 0
          | _ -> pre ^ post 1)
        (int_bound 2) nat
        (oneofl [ '\t'; ','; '%'; '_'; '0'; 'f'; 'G'; '-'; '+'; 'x'; 'Z'; '\n'; '\xff' ])
    in
    let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
    fields_gen >>= fun f -> int_range 1 4 >>= fun k -> edits k (encode_fields f))

let test_row_differential =
  QCheck.Test.make ~name:"row codec: decoder agrees with the split_on_char oracle" ~count:3000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         oneof [ mangled_gen; map encode_fields fields_gen; string_size (int_bound 64) ]))
    agrees

let test_row_total =
  QCheck.Test.make ~name:"row codec: decode_row never raises" ~count:3000
    (QCheck.make ~print:String.escaped QCheck.Gen.(oneof [ string; mangled_gen ]))
    (fun s ->
      match Unicert.Pipeline.decode_row s with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_row_fixed () =
  let legacy = "42\tLet's Encrypt\t20240102030405Z\t1000000\t90\t\tlint_a,lint_b\texample.com" in
  (match Unicert.Pipeline.decode_row legacy with
  | Error e -> Alcotest.failf "8-column row: %s" e
  | Ok row ->
      check Alcotest.int "8-column index" 42 (Unicert.Pipeline.row_index row);
      check Alcotest.(list string) "8-column CNs" [] (Unicert.Pipeline.row_cns row);
      check Alcotest.(list string) "8-column attributes" [] (Unicert.Pipeline.row_attrs row);
      check Alcotest.(list string) "8-column lints" [ "lint_a"; "lint_b" ]
        (Unicert.Pipeline.row_nc row);
      check Alcotest.string "8-column row re-encodes with 10 columns" (legacy ^ "\t\t")
        (Unicert.Pipeline.encode_row row));
  (* [int_of_string "0x4_"] is 4, so "%4_" has always decoded to byte 4. *)
  (match Unicert.Pipeline.decode_row "1\ta%4_b%7e\t20240101000000Z\t1010101\t9\t\t\t" with
  | Error e -> Alcotest.failf "underscore escape: %s" e
  | Ok row -> check Alcotest.string "underscore escape" "a\004b~" (Unicert.Pipeline.row_org row));
  (* Framing errors win over field errors, and each error keeps its
     wording. *)
  List.iter
    (fun (row, want) ->
      let got = match Unicert.Pipeline.decode_row row with Ok _ -> "decoded" | Error e -> e in
      check Alcotest.string (String.escaped row) want got;
      if not (agrees row) then Alcotest.failf "%S: decoder and oracle disagree" row)
    [ ("", "wrong field count");
      ("x\ty", "wrong field count");
      ("x\to\tt\tf\td\tu\tn\td\tc", "wrong field count");
      ("x\to\tt\tf\td\tu\tn\td", "bad index");
      ("1\t%4\tt\tf\td\tu\tn\td", "truncated escape");
      ("1\t%4,\tt\tf\td\tu\tn\td", "bad escape");
      ("1\t%_4\tt\tf\td\tu\tn\td", "bad escape");
      ("1\to\t20240101000000Z\t1010101\t9\tu\t%4_,%_4\td", "bad escape");
      ("1\to\t2024\tf\td\tu\tn\td", "GeneralizedTime must be YYYYMMDDHHMMSSZ");
      ("1\to\t20240230000000Z\tf\td\tu\tn\td", "Time.make: day");
      ("1\to\t20240101000000Z\t101\td\tu\tn\td", "bad flags");
      ("1\to\t20240101000000Z\t1010101\t9x\tu\tn\td", "bad validity");
      ("1\to\t20240101000000Z\t1010101\t9\tu\t%4,a\td", "truncated escape");
      ("1\to\t20240101000000Z\t1010101\t9\tu\tn\td\tc\t%zz", "bad escape") ]

(* --- daemon-shaped stores: packs and index deltas --- *)

let pack_lints = "lint_a;lint_b"
let pack_record i = Store.Db.Cert { index = i; der = Printf.sprintf "der-%d" i }
let pack_row i = Printf.sprintf "row-%d" i

(* Two small indexes keyed by the corpus index, so any split of the
   entries into commits has one full-index answer. *)
let pack_entries ids =
  [ ("parity", List.map (fun i -> ((if i mod 2 = 0 then "even" else "odd"), [ i ])) ids);
    ("digit", List.map (fun i -> (Printf.sprintf "d%%%d" (i mod 10), [ i ])) ids) ]

(* A daemon's fresh store: identity, then a recovered (empty) manifest. *)
let open_daemon_store ?(scale = 1_000_000) dir =
  let db = Store.Db.create ~dir ~scale ~seed:1 ~fingerprint:"packs" in
  Store.Db.recover db ~lints:pack_lints;
  db

(* One commit: [spans] are (lo, hi, ids), ascending.  As the daemon
   commits, every span goes into one pack ([packs]) or, as a batch
   build writes, one file each; the index entries go in as one more
   delta, or, with [base], as the whole index. *)
let commit_spans ?(packs = true) ?(base = false) ?(state = `Building) db spans ~index =
  let write pw =
    List.iter
      (fun (lo, hi, ids) ->
        Store.Db.add_span pw ~lo ~hi;
        List.iter (fun i -> Store.Db.append pw (pack_record i) ~row:(pack_row i)) ids)
      spans
  in
  let fresh =
    if spans = [] then []
    else if packs then begin
      let pw = Store.Db.start_pack db ~lints:pack_lints in
      write pw;
      Store.Db.finish_pack pw
    end
    else
      List.map
        (fun (lo, hi, ids) ->
          let pw = Store.Db.start_span db ~lints:pack_lints ~lo ~hi in
          List.iter (fun i -> Store.Db.append pw (pack_record i) ~row:(pack_row i)) ids;
          Store.Db.finish_span pw)
        spans
  in
  let pairs =
    List.sort
      (fun ((a : Store.Manifest.seg), _) (b, _) -> compare a.Store.Manifest.lo b.Store.Manifest.lo)
      (Store.Db.spans db @ fresh)
  in
  let indexes = Store.Db.save_indexes ~base db (pack_entries index) in
  Store.Db.commit db
    { Store.Manifest.state; lints = pack_lints; segments = List.map fst pairs;
      rows = List.map snd pairs; indexes; meta = [] }

let read_all db =
  let got = ref [] in
  Store.Db.iter_pairs db (fun recd row -> got := (Store.Db.index_of_record recd, row) :: !got);
  List.sort compare !got

(* The batch replay's way: span by span, in index order. *)
let read_spans db =
  let got = ref [] in
  List.iter
    (fun pr ->
      Store.Db.iter_pair db pr (fun recd row ->
          got := (Store.Db.index_of_record recd, row) :: !got))
    (Store.Db.spans db);
  List.rev !got

(* A random ingest: [logs] contiguous partitions of [per] indices, and
   [commits] rounds in which each log lands a random number of its next
   indices (some dropped, as a log's holes are) as one span. *)
let random_schedule rng ~logs ~per ~commits =
  let marks = Array.init logs (fun k -> k * per) in
  List.init commits (fun c ->
      List.filter_map
        (fun k ->
          let stop = (k + 1) * per in
          let last = c = commits - 1 in
          let take = if last then stop - marks.(k) else Random.State.int rng (stop - marks.(k) + 1) in
          if take = 0 then None
          else begin
            let lo = marks.(k) and hi = marks.(k) + take in
            marks.(k) <- hi;
            let ids = List.filter (fun _ -> Random.State.int rng 5 > 0) (List.init take (( + ) lo)) in
            Some (lo, hi, ids)
          end)
        (List.init logs Fun.id))

let test_packs_property =
  QCheck.Test.make ~name:"packs + deltas read back as one span per file and one full index"
    ~count:12
    QCheck.(quad (int_range 1 5) (int_range 1 12) (int_range 1 24) int)
    (fun (logs, per, commits, seed) ->
      let rng = Random.State.make [| seed |] in
      let schedule = random_schedule rng ~logs ~per ~commits in
      let scale = logs * per in
      let packed = fresh_dir "prop-packs" and single = fresh_dir "prop-single" in
      Fun.protect
        ~finally:(fun () -> rm_rf packed; rm_rf single)
        (fun () ->
          let dp = open_daemon_store ~scale packed and ds = open_daemon_store ~scale single in
          let n = List.length schedule in
          List.iteri
            (fun c spans ->
              let index = List.concat_map (fun (_, _, ids) -> ids) spans in
              let state = if c = n - 1 then `Complete else `Building in
              commit_spans dp spans ~index ~state;
              commit_spans ~packs:false ~base:true ds spans
                ~index:(List.concat_map (fun (_, _, ids) -> ids) (List.concat (List.filteri (fun j _ -> j <= c) schedule)))
                ~state)
            schedule;
          let written =
            List.concat_map (List.concat_map (fun (_, _, ids) -> List.map (fun i -> (i, pack_row i)) ids)) schedule
            |> List.sort compare
          in
          let shape db =
            ( List.map (fun ((c : Store.Manifest.seg), _) -> (c.Store.Manifest.lo, c.hi, c.records)) (Store.Db.spans db),
              Store.Db.gaps db ~scale,
              Store.Db.complete (Store.Db.open_ro ~dir:(Store.Db.dir db)) )
          in
          let index db name = Store.Db.load_index (Store.Db.open_ro ~dir:(Store.Db.dir db)) name in
          let deltas = List.length (Store.Db.manifest dp).Store.Manifest.indexes in
          read_all (Store.Db.open_ro ~dir:packed) = written
          && read_spans (Store.Db.open_ro ~dir:packed) = written
          && read_all (Store.Db.open_ro ~dir:single) = written
          && shape dp = shape ds
          && List.for_all (fun name -> index dp name = index ds name) [ "parity"; "digit" ]
          && deltas = ((n - 1) mod 16) + 1
          && (Store.Db.fsck ~dir:packed ()).Store.Db.issues = []))

(* A commit's cost must not grow with the history: commit 12 issues
   the fsyncs of commit 1 and creates as many files, of about the same
   size, on a store shaped like the daemon's (16 logs, a span each). *)
let test_commit_cost_constant () =
  let dir = fresh_dir "commit-cost" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let db = open_daemon_store dir in
      let fsyncs = Obs.Registry.counter "unicert_store_fsync_total" in
      let files () = Array.to_list (Sys.readdir dir) in
      let commit c =
        let before = files () and f0 = Obs.Counter.value fsyncs in
        let spans =
          List.init 16 (fun k ->
              let lo = (k * 10_000) + (c * 64) in
              (lo, lo + 64, List.init 64 (( + ) lo)))
        in
        commit_spans db spans ~index:(List.concat_map (fun (_, _, ids) -> ids) spans);
        let created = List.filter (fun f -> not (List.mem f before)) (files ()) in
        ( int_of_float (Obs.Counter.value fsyncs -. f0),
          List.length created,
          List.fold_left (fun a f -> a + (Unix.stat (Filename.concat dir f)).Unix.st_size) 0 created )
      in
      let costs = List.init 12 commit in
      let fs1, n1, b1 = List.hd costs and fs12, n12, b12 = List.nth costs 11 in
      check Alcotest.int "commit 12 fsyncs as often as commit 1" fs1 fs12;
      check Alcotest.int "commit 12 creates as many files as commit 1" n1 n12;
      check Alcotest.int "a commit creates one pack pair and one delta" 3 n1;
      if b12 * 4 > b1 * 5 then
        Alcotest.failf "commit 12 created %d bytes, commit 1 %d" b12 b1)

(* The crash matrix over daemon commits: kill at every declared point
   (several occurrences, so later commits' packs and deltas are hit),
   then recover and repair as the daemon's restart does.  The store
   must hold exactly the records of a prefix of the commits — every
   one acknowledged, plus at most the one whose manifest rename
   landed — and fsck clean. *)
let test_pack_crash_matrix () =
  let schedule =
    List.init 3 (fun c ->
        List.init 4 (fun k ->
            let lo = (k * 100) + (c * 8) in
            (lo, lo + 8, List.init 8 (( + ) lo))))
  in
  let prefix k =
    List.concat_map
      (List.concat_map (fun (_, _, ids) -> List.map (fun i -> (i, pack_row i)) ids))
      (List.filteri (fun j _ -> j < k) schedule)
    |> List.sort compare
  in
  List.iter
    (fun point ->
      List.iter
        (fun occurrence ->
          let dir = fresh_dir "pack-crash" in
          Fun.protect
            ~finally:(fun () -> Store.Chaos.disarm (); rm_rf dir)
            (fun () ->
              let db = open_daemon_store dir in
              let acked = ref 0 in
              Store.Chaos.arm_crash ~point ~occurrence;
              (try
                 List.iter
                   (fun spans ->
                     commit_spans db spans ~index:(List.concat_map (fun (_, _, ids) -> ids) spans);
                     incr acked)
                   schedule
               with Store.Chaos.Crashed _ -> ());
              Store.Chaos.disarm ();
              let name = Printf.sprintf "%s#%d" point occurrence in
              check Alcotest.bool (name ^ ": fsck finds the store usable") true
                (Store.Db.fsck ~dir ()).Store.Db.usable;
              ignore (open_daemon_store dir);
              ignore (Store.Db.fsck ~repair:true ~dir ());
              check Alcotest.int (name ^ ": fsck clean after recovery") 0
                (List.length (Store.Db.fsck ~dir ()).Store.Db.issues);
              let man = Store.Db.manifest (Store.Db.open_ro ~dir) in
              let listed =
                List.map (fun (s : Store.Manifest.seg) -> s.Store.Manifest.file)
                  (man.Store.Manifest.segments @ man.Store.Manifest.rows)
              in
              Array.iter
                (fun f ->
                  if Filename.check_suffix f ".seg" && not (List.mem f listed) then
                    Alcotest.failf "%s: %s left behind" name f)
                (Sys.readdir dir);
              let got = read_all (Store.Db.open_ro ~dir) in
              check Alcotest.bool
                (Printf.sprintf "%s: a committed prefix (%d acknowledged)" name !acked)
                true
                (got = prefix !acked || got = prefix (!acked + 1))))
        [ 1; 2; 5; 9 ])
    Store.Chaos.crash_points

(* fsck and repair treat a pack as one unit: a flipped bit in one
   pack's certs file is reported once, repair quarantines the pack with
   its rows mate and keeps every other commit's spans, and the repaired
   store fscks clean. *)
let test_pack_fsck_unit () =
  let dir = fresh_dir "pack-fsck" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let db = open_daemon_store dir in
      let commit c =
        let spans = List.init 4 (fun k -> let lo = (k * 100) + (c * 8) in (lo, lo + 8, List.init 8 (( + ) lo))) in
        commit_spans db spans ~index:(List.concat_map (fun (_, _, ids) -> ids) spans)
      in
      List.iter commit [ 0; 1; 2 ];
      ignore (Store.Chaos.flip_bit_in_file ~seed:3 (Filename.concat dir "certs-pack-2.seg"));
      let r = Store.Db.fsck ~dir () in
      check Alcotest.(list string) "one issue, on the damaged pack" [ "certs-pack-2.seg" ]
        (List.map (fun (i : Store.Db.issue) -> i.Store.Db.file) r.Store.Db.issues);
      check Alcotest.(pair int int) "the pack's four spans are lost" (8, 12)
        (r.Store.Db.spans_ok, r.Store.Db.spans_expected);
      ignore (Store.Db.fsck ~repair:true ~dir ());
      List.iter
        (fun f ->
          check Alcotest.bool (f ^ " quarantined") true
            (Sys.file_exists (Filename.concat dir (f ^ ".quarantined"))))
        [ "certs-pack-2.seg"; "rows-" ^ String.sub (Ucrypto.Sha256.hex pack_lints) 0 8 ^ "-pack-2.seg" ];
      check Alcotest.int "clean after repair" 0 (List.length (Store.Db.fsck ~dir ()).Store.Db.issues);
      check Alcotest.int "the other commits read back" 64
        (List.length (read_all (Store.Db.open_ro ~dir))))

(* A store of the previous format version: committed packs and index
   deltas under a version-1 identity and manifest.  Opening it is
   refused with the version and a rebuild hint, and fsck, with or
   without --repair, reports the one version issue and touches no
   file. *)
let test_v1_refused () =
  let dir = fresh_dir "v1" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let db = open_daemon_store dir in
      commit_spans db [ (0, 4, [ 0; 1; 2; 3 ]) ] ~index:[ 0; 1; 2; 3 ];
      commit_spans db [ (4, 8, [ 4; 5; 6; 7 ]) ] ~index:[ 4; 5; 6; 7 ];
      let path = Filename.concat dir Store.Manifest.file in
      let man = In_channel.with_open_bin path In_channel.input_all in
      let v2 = {|{"version":2,|} in
      check Alcotest.bool "manifest starts with its version" true
        (String.starts_with ~prefix:v2 man);
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            ({|{"version":1,|}
            ^ String.sub man (String.length v2) (String.length man - String.length v2)));
      Out_channel.with_open_bin (Filename.concat dir Store.Manifest.id_file) (fun oc ->
          output_string oc {|{"version":1,"scale":1000000,"seed":1,"fingerprint":"packs"}|});
      let contains e want =
        let n = String.length want in
        let rec at i = i + n <= String.length e && (String.sub e i n = want || at (i + 1)) in
        at 0
      in
      let refused () =
        match Store.Db.open_ro ~dir with
        | _ -> Alcotest.fail "a version-1 store opened"
        | exception Store.Db.Store_error e ->
            check Alcotest.bool ("version message: " ^ e) true
              (contains e "format version 1, this build reads 2");
            check Alcotest.bool ("rebuild hint: " ^ e) true
              (contains e "rebuild the store" && not (contains e "fsck"))
      in
      refused ();
      let snapshot () =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.map (fun f ->
               (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
      in
      let before = snapshot () in
      check Alcotest.bool "the store has index deltas" true
        (List.exists (fun (f, _) -> Filename.check_suffix f ".idx") before);
      List.iter
        (fun repair ->
          let r = Store.Db.fsck ~repair ~dir () in
          check
            Alcotest.(list (pair string string))
            "one version issue, no repair"
            [ (Store.Manifest.id_file, "version") ]
            (List.map
               (fun (i : Store.Db.issue) -> (i.Store.Db.file, i.Store.Db.problem))
               r.Store.Db.issues);
          check Alcotest.bool "repair none" true
            (List.for_all (fun (i : Store.Db.issue) -> i.Store.Db.repair = "none")
               r.Store.Db.issues);
          check Alcotest.bool "state foreign" true (r.Store.Db.store_state = `Foreign);
          check Alcotest.bool "nothing repaired" false r.Store.Db.repaired;
          check Alcotest.bool "every file kept byte for byte" true (snapshot () = before))
        [ false; true ];
      refused ())

let suite =
  [
    Alcotest.test_case "cold/warm byte identity" `Quick test_cold_warm_identity;
    Alcotest.test_case "read-only open of an in-flight build" `Quick
      test_open_ro_mid_build;
    Alcotest.test_case "crash matrix (every point, jobs 1/2/4)" `Slow
      test_crash_matrix;
    Alcotest.test_case "crash matrix (second occurrences)" `Slow
      test_crash_matrix_second_occurrence;
    Alcotest.test_case "fsck detects every bit flip" `Quick
      test_fsck_detects_bit_flips;
    Alcotest.test_case "fsck repair, then rebuild the gap" `Quick
      test_fsck_repair_then_rebuild;
    Alcotest.test_case "fsck on an absent store" `Quick test_fsck_absent;
    Alcotest.test_case "persistent index lookups" `Quick test_indexes;
    Alcotest.test_case "incremental recompute" `Quick
      test_incremental_recompute;
    Alcotest.test_case "fetch-sourced build, cold and warm" `Quick
      test_fetch_store;
    Alcotest.test_case "identity mismatch rejected" `Quick
      test_identity_mismatch;
    Alcotest.test_case "CRC-32 kernel matches the bitwise reference" `Quick
      test_crc_reference;
    Alcotest.test_case "CRC-32 rejects out-of-range slices" `Quick test_crc_range;
    Alcotest.test_case "segment bytes pinned" `Quick test_segment_bytes;
    Alcotest.test_case "row codec: legacy rows and error wording" `Quick test_row_fixed;
    QCheck_alcotest.to_alcotest test_row_roundtrip;
    QCheck_alcotest.to_alcotest test_row_differential;
    QCheck_alcotest.to_alcotest test_row_total;
    QCheck_alcotest.to_alcotest test_packs_property;
    Alcotest.test_case "commit cost is constant in the history" `Quick
      test_commit_cost_constant;
    Alcotest.test_case "crash matrix (daemon packs and deltas)" `Slow
      test_pack_crash_matrix;
    Alcotest.test_case "fsck treats a pack as one unit" `Quick test_pack_fsck_unit;
    Alcotest.test_case "version-1 store refused" `Quick test_v1_refused;
  ]
