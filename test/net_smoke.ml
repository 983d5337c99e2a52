(* @net-smoke: end-to-end contract check for the fetch source, attached
   to @runtest.

   Runs the full pipeline with its corpus fetched off the simulated CT
   logs and asserts the transport-robustness contract: the rendered
   report is byte-identical across --jobs values (clean and at a 10%
   fault rate), analysing a fetched corpus matches analysing a locally
   generated one, and a persistently dead log degrades coverage without
   aborting the run.  The clean and faulty reports are also pinned to
   golden SHA-256 digests. *)

let scale = 256
let seed = 9

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("net-smoke: FAIL: " ^ m);
      exit 1)
    fmt

let report t = Format.asprintf "%a" Unicert.Report.all t

(* SHA-256 of the rendered clean and 10%-fault fetch reports. *)
let golden_clean =
  "7993095d34bf49d9ee03c0de87eef29e18fba9379dec5a6892ddfdee24de77bd"
let golden_faulty =
  "0c47dc0d351f5b1a362a43d4a1510d794f862ddb46bc016af9f553c191d770f1"

let check_digest what expected bytes =
  let got = Ucrypto.Sha256.hex bytes in
  if got <> expected then fail "%s digest %s, expected %s" what got expected

let base_cfg =
  { Ctlog.Fetch.default_cfg with Ctlog.Fetch.logs = 8; net_seed = Some 41 }

let run ?(cfg = base_cfg) jobs =
  Unicert.Pipeline.run ~scale ~seed ~jobs ~source:(Unicert.Pipeline.Fetch cfg) ()

(* The Coverage section only exists for fetch sources; strip it when
   comparing against a generate-source report. *)
let strip_coverage r =
  let marker = "== Coverage" in
  let nm = String.length marker and nr = String.length r in
  let rec find i =
    if i + nm > nr then None
    else if String.sub r i nm = marker then Some i
    else find (i + 1)
  in
  match find 0 with None -> r | Some i -> String.trim (String.sub r 0 i)

let () =
  let clean1 = run 1 in
  let clean4 = run 4 in
  if report clean1 <> report clean4 then
    fail "clean fetch report differs between --jobs 1 and --jobs 4";
  check_digest "clean fetch report" golden_clean (report clean1);
  if Unicert.Pipeline.coverage_degraded clean1 then
    fail "clean transport must not degrade coverage";

  let gen = report (Unicert.Pipeline.run ~scale ~seed ~jobs:1 ()) in
  if strip_coverage (report clean1) <> String.trim gen then
    fail "a fetched corpus must analyse identically to a generated one";

  let faulty_cfg =
    { base_cfg with Ctlog.Fetch.fault_rate = 0.1; page_cap = 8 }
  in
  let f1 = run ~cfg:faulty_cfg 1 in
  let f4 = run ~cfg:faulty_cfg 4 in
  if report f1 <> report f4 then
    fail "faulty fetch report differs between --jobs 1 and --jobs 4";
  check_digest "faulty fetch report" golden_faulty (report f1);
  (* Retry counts differ in the Coverage section; the analysis must
     not. *)
  if strip_coverage (report f1) <> strip_coverage (report clean1) then
    fail "a 10%% fault rate must be retried into the clean result";
  if Unicert.Pipeline.coverage_degraded f1 then
    fail "a 10%% fault rate must not degrade coverage";

  let down_cfg =
    { base_cfg with Ctlog.Fetch.down = [ Ctlog.Fetch.log_name 3 ] }
  in
  let d = run ~cfg:down_cfg 2 in
  (match d.Unicert.Pipeline.faults.Unicert.Pipeline.aborted with
  | Some reason -> fail "dead-log run aborted instead of degrading: %s" reason
  | None -> ());
  if not (Unicert.Pipeline.coverage_degraded d) then
    fail "a dead log must surface as degraded coverage";
  print_endline "net-smoke: OK"
