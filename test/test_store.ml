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
  ]
