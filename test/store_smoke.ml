(* @store-smoke: end-to-end durability check, attached to @runtest.

   Exercises the crash-safe store contract the way an operator hits it:

   - a cold store-backed run renders the byte-identical report of a
     storeless run, and leaves a complete store behind;
   - a warm replay (no DER parsing, no lint execution) renders the
     same bytes again;
   - a bit flip in a sealed segment is detected by fsck, which reports
     the store degraded-but-usable (the exit-4 contract: intact data
     remains, so never a total loss);
   - fsck --repair quarantines the damaged pair, and the next run
     regenerates only the lost span, landing back on the identical
     report with the store complete again.

   The cold and warm reports are also pinned to a golden SHA-256
   digest. *)

let scale = 400
let seed = 6

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("store-smoke: FAIL: " ^ m);
      exit 1)
    fmt

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let report t = Format.asprintf "%a" Unicert.Report.all t

(* SHA-256 of the rendered report at this (scale, seed). *)
let golden =
  "748faaa0b87755f437264092bab631cbe3f609879577d65220a2fbc0cc466d47"

let check_digest what bytes =
  let got = Ucrypto.Sha256.hex bytes in
  if got <> golden then fail "%s digest %s, expected %s" what got golden

let () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "unicert-store-smoke-%d" (Unix.getpid ()))
  in
  rm_rf dir;

  let plain = report (Unicert.Pipeline.run ~scale ~seed ()) in

  (* Cold build. *)
  let cold = report (Unicert.Pipeline.run ~scale ~seed ~jobs:2 ~store:dir ()) in
  if cold <> plain then fail "cold store-backed report differs from storeless run";
  check_digest "cold report" cold;
  if not (Store.Db.complete (Store.Db.open_ro ~dir)) then
    fail "store not complete after the cold build";

  (* Warm replay. *)
  let warm = report (Unicert.Pipeline.run ~scale ~seed ~store:dir ()) in
  if warm <> plain then fail "warm replay report differs";
  check_digest "warm report" warm;

  (* Corrupt a sealed cert segment: fsck must detect it and report the
     store degraded-but-usable. *)
  let seg =
    Sys.readdir dir |> Array.to_list
    |> List.find_opt (fun f ->
           String.length f > 6 && String.sub f 0 6 = "certs-"
           && Filename.check_suffix f ".seg")
    |> function
    | Some f -> f
    | None -> fail "no sealed cert segment found in %s" dir
  in
  ignore (Store.Chaos.flip_bit_in_file ~seed:7 (Filename.concat dir seg));
  let r = Store.Db.fsck ~dir () in
  if not (List.exists (fun (i : Store.Db.issue) -> i.Store.Db.file = seg) r.Store.Db.issues)
  then fail "fsck missed the flipped bit in %s" seg;
  if not r.Store.Db.usable then
    fail "fsck declared the store unusable though intact spans remain";

  (* Repair, then rebuild only the lost span. *)
  let r = Store.Db.fsck ~repair:true ~dir () in
  if not r.Store.Db.repaired then fail "fsck --repair repaired nothing";
  if not (Sys.file_exists (Filename.concat dir (seg ^ ".quarantined"))) then
    fail "damaged segment was not quarantined";
  let rebuilt = report (Unicert.Pipeline.run ~scale ~seed ~jobs:2 ~store:dir ()) in
  if rebuilt <> plain then fail "rebuilt report differs after repair";
  if not (Store.Db.complete (Store.Db.open_ro ~dir)) then
    fail "store not complete after the rebuild";

  rm_rf dir;
  Printf.printf
    "store-smoke: OK (%d certs; cold=warm=storeless; flip detected, \
     quarantined, span rebuilt identically)\n"
    scale
