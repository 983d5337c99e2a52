(* unicert-fuzz: the coverage-guided differential fuzzing campaign.

   run      — execute a campaign, write findings JSONL
   minimize — delta-debug cluster exemplars from a findings file
   report   — render the cluster table from a findings file

   Exit codes follow the shared funnel: 0 clean, 2 unusable inputs
   (bad flags, corrupt checkpoint), 3 the campaign aborted on its
   wall-clock budget, 4 the campaign completed but one or more models
   ran degraded (breaker-threshold crashes). *)

open Cmdliner

let write_findings path findings =
  try
    Fuzz.Findings.write path findings;
    0
  with Sys_error msg ->
    Printf.eprintf "error: cannot write findings: %s\n" msg;
    1

let summarize ppf (t : Fuzz.Campaign.t) =
  Format.fprintf ppf
    "campaign: %d executions in %d rounds, %d signatures, corpus %d, %d \
     findings@."
    t.Fuzz.Campaign.executions t.Fuzz.Campaign.rounds
    t.Fuzz.Campaign.signatures t.Fuzz.Campaign.corpus_size
    (List.length t.Fuzz.Campaign.findings);
  (match t.Fuzz.Campaign.first_disagreement with
  | Some e -> Format.fprintf ppf "first disagreement at execution %d@." e
  | None -> Format.fprintf ppf "no disagreement found@.");
  Fuzz.Findings.report ppf t.Fuzz.Campaign.findings

let run budget seed jobs round_size timeout max_seconds breaker_threshold
    checkpoint resume findings_file minimize fault_models fault_hang ()
    trace =
  (match trace with
  | None -> ()
  | Some file -> Obs.Trace.enable ~file ());
  let mode = if fault_hang then Faults.Injector.Hang else Faults.Injector.Crash in
  Fault_cli.arm_specs ~flag:"--fault-model" ~prefix:"model:" ~mode fault_models;
  let cfg =
    { Fuzz.Campaign.default_config with
      Fuzz.Campaign.seed; budget; jobs; round_size; timeout;
      max_seconds; breaker_threshold; checkpoint; resume;
      minimize_findings = minimize }
  in
  let t = Fault_cli.guard (fun () -> Fuzz.Campaign.run cfg) in
  let io_code =
    match findings_file with
    | None -> 0
    | Some path -> write_findings path t.Fuzz.Campaign.findings
  in
  summarize Format.std_formatter t;
  Format.pp_print_flush Format.std_formatter ();
  let code =
    match t.Fuzz.Campaign.status with
    | Fuzz.Campaign.Wall_abort elapsed ->
        Printf.eprintf
          "error: campaign aborted: wall-clock budget exhausted after %.3fs \
           (%d of %d executions)\n"
          elapsed t.Fuzz.Campaign.executions budget;
        3
    | Fuzz.Campaign.Completed ->
        if t.Fuzz.Campaign.degraded <> [] then begin
          Printf.eprintf "warning: degraded models during the campaign: %s\n"
            (String.concat ", "
               (List.map
                  (fun (m, c) -> Printf.sprintf "%s (%d crashes)" m c)
                  t.Fuzz.Campaign.degraded));
          4
        end
        else 0
  in
  Fault_cli.exit_via (Faults.Exitcode.worst code io_code)

let load_findings path =
  match Fuzz.Findings.read path with
  | Ok fs -> fs
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      Fault_cli.exit_via 2
  | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      Fault_cli.exit_via 2

let minimize_cmd findings_file out corpus_dir breaker_threshold =
  let findings = load_findings findings_file in
  let clusters = Fuzz.Findings.clusters findings in
  let minimized =
    List.map
      (fun (cluster, _, _, (ex : Fuzz.Findings.finding)) ->
        let min_der =
          Fuzz.Minimize.minimize ~threshold:breaker_threshold ex.Fuzz.Findings.der
        in
        Printf.printf "%s: %d -> %d bytes\n" cluster
          (String.length ex.Fuzz.Findings.der)
          (String.length min_der);
        (cluster, min_der))
      clusters
  in
  (* only the exemplar line of each cluster carries the minimized
     bytes, keeping the file growth bounded *)
  let exemplars =
    List.map (fun (c, _, _, (ex : Fuzz.Findings.finding)) -> (c, ex.Fuzz.Findings.exec)) clusters
  in
  let findings' =
    List.map
      (fun (f : Fuzz.Findings.finding) ->
        match List.assoc_opt f.Fuzz.Findings.cluster minimized with
        | Some min_der
          when List.mem (f.Fuzz.Findings.cluster, f.Fuzz.Findings.exec) exemplars ->
            { f with Fuzz.Findings.min_der = Some min_der }
        | _ -> f)
      findings
  in
  let code = write_findings (Option.value ~default:findings_file out) findings' in
  (match corpus_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (cluster, min_der) ->
          match X509.Certificate.parse ~config:Asn1.Value.lenient min_der with
          | Ok cert ->
              let oc = open_out (Filename.concat dir (cluster ^ ".pem")) in
              output_string oc (X509.Certificate.to_pem cert);
              close_out oc
          | Error _ ->
              (* byte mutants may not re-parse; keep them as raw DER *)
              let oc = open_out (Filename.concat dir (cluster ^ ".der")) in
              output_string oc min_der;
              close_out oc)
        minimized);
  Fault_cli.exit_via code

let report_cmd findings_file =
  let findings = load_findings findings_file in
  Fuzz.Findings.report Format.std_formatter findings;
  Format.pp_print_flush Format.std_formatter ();
  Fault_cli.exit_via 0

let budget =
  Arg.(value & opt int 512 & info [ "budget" ] ~docv:"N"
       ~doc:"Total candidate executions")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed")
let jobs =
  Arg.(value & opt int (Par.default_jobs ()) & info [ "jobs" ] ~docv:"N"
       ~doc:"Worker domains per round (findings are identical for any value)")
let round_size =
  Arg.(value & opt int 64 & info [ "round" ] ~docv:"N"
       ~doc:"Candidates per coverage round")
let timeout =
  Arg.(value & opt float 0. & info [ "timeout" ] ~docv:"SECONDS"
       ~doc:"Per-candidate watchdog; 0 disables. A timeout that fires exempts \
             the run from the byte-identity contract")
let max_seconds =
  Arg.(value & opt (some float) None & info [ "max-seconds" ] ~docv:"SECONDS"
       ~doc:"Wall-clock budget; exceeding it aborts the campaign (exit 3)")
let breaker_threshold =
  Arg.(value & opt int Faults.Breaker.default_threshold
       & info [ "breaker-threshold" ] ~docv:"N"
       ~doc:"Consecutive crashes before a model's circuit breaker opens")
let checkpoint =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
       ~doc:"Save campaign state after every round")
let resume =
  Arg.(value & flag & info [ "resume" ] ~doc:"Resume from --checkpoint")
let findings_file =
  Arg.(value & opt (some string) None & info [ "findings" ] ~docv:"FILE"
       ~doc:"Write findings JSONL (byte-identical for a fixed seed/budget \
             across --jobs)")
let minimize_flag =
  Arg.(value & flag & info [ "minimize" ]
       ~doc:"Minimize every finding before writing")
let fault_models =
  Arg.(value & opt_all string [] & info [ "fault-model" ] ~docv:"NAME:EVERY"
       ~doc:"Inject a crash into parser model NAME every EVERY probes")
let fault_hang =
  Arg.(value & flag & info [ "fault-hang" ]
       ~doc:"Injected faults hang (bounded busy loop) instead of crashing")
let trace =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
       ~doc:"Record a Chrome-trace timeline")
let findings_in =
  Arg.(required & opt (some string) None & info [ "findings" ] ~docv:"FILE"
       ~doc:"Findings JSONL produced by run")
let out =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
       ~doc:"Output findings file (default: rewrite --findings in place)")
let corpus_dir =
  Arg.(value & opt (some string) None & info [ "corpus-dir" ] ~docv:"DIR"
       ~doc:"Write one minimized reproducer per cluster (PEM, or raw .der \
             when the reproducer no longer parses)")

let run_c =
  Cmd.v (Cmd.info "run" ~doc:"execute a fuzzing campaign")
    Term.(const run $ budget $ seed $ jobs $ round_size $ timeout $ max_seconds
          $ breaker_threshold $ checkpoint $ resume $ findings_file
          $ minimize_flag $ fault_models $ fault_hang $ Fault_cli.metrics $ trace)

let minimize_c =
  Cmd.v (Cmd.info "minimize" ~doc:"minimize cluster exemplars from a findings file")
    Term.(const minimize_cmd $ findings_in $ out $ corpus_dir $ breaker_threshold)

let report_c =
  Cmd.v (Cmd.info "report" ~doc:"render the cluster table from a findings file")
    Term.(const report_cmd $ findings_in)

let cmd =
  Cmd.group
    (Cmd.info "unicert-fuzz"
       ~doc:"coverage-guided differential fuzzing over string types, encodings, and IDNA edge cases")
    [ run_c; minimize_c; report_c ]

let () = exit (Cmd.eval cmd)
