(* @par-smoke: end-to-end determinism check for the sharded pipeline,
   attached to @runtest.

   Runs the full analysis twice — sequentially and across 4 worker
   domains — and asserts the multicore contract: the rendered report is
   byte-identical, and with seeded corruption the quarantine sidecar
   folded from the per-shard files is byte-identical too.  Both jobs
   values run the same sharded driver, so the bytes are also pinned to
   golden SHA-256 digests. *)

let scale = 400
let seed = 6
let rate = 0.05

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("par-smoke: FAIL: " ^ m);
      exit 1)
    fmt

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let report t = Format.asprintf "%a" Unicert.Report.all t

(* SHA-256 of the rendered report (and sidecar) at each fixed case. *)
let golden_clean =
  "748faaa0b87755f437264092bab631cbe3f609879577d65220a2fbc0cc466d47"
let golden_corrupt_report =
  "5e853a483ffb23065f42f7a285fb7b048c6123311207f4001b49bb7afb1b4030"
let golden_corrupt_quarantine =
  "bdbbf6dfd3ece60edda752cbc951f37c3d15bf96cb90b4c5cf55938e3b487267"

let check_digest what expected bytes =
  let got = Ucrypto.Sha256.hex bytes in
  if got <> expected then fail "%s digest %s, expected %s" what got expected

let () =
  List.iter
    (fun jobs ->
      check_digest
        (Printf.sprintf "clean report (jobs=%d)" jobs)
        golden_clean
        (report (Unicert.Pipeline.run ~scale ~seed ~jobs ())))
    [ 1; 2; 4 ];

  let corrupt jobs =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "unicert-par-smoke-%d-%d" jobs (Unix.getpid ()))
    in
    rm_rf dir;
    let policy =
      { Faults.Policy.default with Faults.Policy.quarantine_dir = Some dir }
    in
    let plan = Faults.Mutator.plan ~seed ~rate () in
    let t = Unicert.Pipeline.run ~scale ~seed ~policy ~mutator:plan ~jobs () in
    (match t.Unicert.Pipeline.faults.Unicert.Pipeline.aborted with
    | Some reason -> fail "corrupt run (jobs=%d) aborted: %s" jobs reason
    | None -> ());
    let sidecar =
      Filename.concat dir (Printf.sprintf "quarantine-%d.jsonl" seed)
    in
    let bytes = read_file sidecar in
    rm_rf dir;
    (report t, bytes)
  in
  let seq_report, seq_q = corrupt 1 in
  let par_report, par_q = corrupt 4 in
  if String.length seq_q = 0 then fail "mutator hit nothing at rate %.2f" rate;
  if par_report <> seq_report then
    fail "corrupted report differs between --jobs 1 and --jobs 4";
  if par_q <> seq_q then
    fail "quarantine sidecar differs between --jobs 1 and --jobs 4";
  check_digest "corrupt report" golden_corrupt_report seq_report;
  check_digest "quarantine sidecar" golden_corrupt_quarantine seq_q;
  print_endline "par-smoke: OK"
