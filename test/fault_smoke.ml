(* @fault-smoke: end-to-end robustness check, attached to @runtest.

   Runs the analysis pipeline over a small corpus with 5% seeded
   corruption and asserts the contract the fault layer promises:

   - the run completes (exit 0) despite the corrupted certificates;
   - the quarantine holds exactly the certificates the mutator hit;
   - the aggregate report over the surviving 95% matches a drop-mode
     run over the same survivors (corruption never perturbs them);
   - with the fault plumbing armed but nothing corrupted, the report
     is byte-identical to a plain run. *)

let scale = 400
let seed = 6
let rate = 0.05

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("fault-smoke: FAIL: " ^ m);
      exit 1)
    fmt

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let report t = Format.asprintf "%a" Unicert.Report.all t

let () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "unicert-fault-smoke-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let plan = Faults.Mutator.plan ~seed ~rate () in
  let injected = ref 0 in
  for i = 0 to scale - 1 do
    if Faults.Mutator.hits plan i then incr injected
  done;
  if !injected = 0 then fail "mutator hit nothing at rate %.2f" rate;

  let policy =
    { Faults.Policy.default with Faults.Policy.quarantine_dir = Some dir }
  in
  let corrupt = Unicert.Pipeline.run ~scale ~seed ~policy ~mutator:plan () in
  (match corrupt.Unicert.Pipeline.faults.Unicert.Pipeline.aborted with
  | Some reason -> fail "corrupt run aborted: %s" reason
  | None -> ());
  let quarantined = corrupt.Unicert.Pipeline.faults.Unicert.Pipeline.quarantined in
  if quarantined <> !injected then
    fail "quarantined %d but injected %d" quarantined !injected;
  let sidecar = Filename.concat dir (Printf.sprintf "quarantine-%d.jsonl" seed) in
  let entries = Faults.Quarantine.load sidecar in
  if List.length entries <> !injected then
    fail "sidecar holds %d entries, expected %d" (List.length entries) !injected;
  rm_rf dir;

  (* The surviving 95% must be untouched by the corruption machinery. *)
  let drop = Unicert.Pipeline.run ~scale ~seed ~mutator:plan ~drop:true () in
  if drop.Unicert.Pipeline.total <> corrupt.Unicert.Pipeline.total then
    fail "survivor counts differ: drop %d vs corrupt %d"
      drop.Unicert.Pipeline.total corrupt.Unicert.Pipeline.total;
  let corrupt_report = report corrupt and drop_report = report drop in
  (* The corrupt report is the drop report plus a trailing robustness
     section; everything before it must match byte for byte. *)
  if
    String.length corrupt_report < String.length drop_report
    || String.sub corrupt_report 0 (String.length drop_report) <> drop_report
  then fail "aggregate report over the survivors changed under corruption";

  (* Armed-but-idle fault plumbing must not change report bytes. *)
  let plain = report (Unicert.Pipeline.run ~scale ~seed ()) in
  let dir2 = dir ^ "-idle" in
  rm_rf dir2;
  let ckpt = Filename.temp_file "unicert-fault-smoke" ".ckpt" in
  let idle_policy =
    { Faults.Policy.default with
      Faults.Policy.quarantine_dir = Some dir2;
      checkpoint_file = Some ckpt;
      checkpoint_every = 100 }
  in
  let idle = report (Unicert.Pipeline.run ~scale ~seed ~policy:idle_policy ()) in
  rm_rf dir2;
  (* A jobs=1 run keeps its cursor in shard 0's file. *)
  Sys.remove (Faults.Checkpoint.shard_file ckpt 0);
  Sys.remove ckpt;
  if idle <> plain then
    fail "clean-corpus report changed when the fault plumbing was armed";

  Printf.printf
    "fault-smoke: OK (%d certs, %d corrupted+quarantined, survivors' report stable)\n"
    scale !injected
