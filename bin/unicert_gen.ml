(* unicert-gen: emit test Unicerts as PEM — either corpus samples from
   the calibrated generator, or single-field mutants in the style of the
   paper's §3.2 test certificates. *)

open Cmdliner

let emit_pem cert = print_string (X509.Certificate.to_pem cert)

(* Every corpus run ends the same way: an aborted run (fail-fast or the
   error budget) prints why, emits nothing and exits 3; otherwise
   [emit ()] prints the certificates and returns how many, and the
   fault note, shortfall warning and degraded-coverage exit follow. *)
let conclude ~count (fault : Fault_cli.t) (p : Unicert.Pipeline.t) emit =
  (match p.Unicert.Pipeline.faults.Unicert.Pipeline.aborted with
  | Some reason ->
      Printf.eprintf "error: run aborted: %s\n" reason;
      Fault_cli.exit_via 3
  | None -> ());
  let emitted = emit () in
  let faulted = p.Unicert.Pipeline.faults.Unicert.Pipeline.fault_errors in
  if faulted > 0 then
    Printf.eprintf "note: %d corrupted certificate(s) withheld%s\n" faulted
      (match fault.Fault_cli.policy.Faults.Policy.quarantine_dir with
      | Some qdir -> Printf.sprintf " and quarantined under %s" qdir
      | None -> "");
  if emitted < count then
    Printf.eprintf "warning: only %d of %d requested certificates emitted\n"
      emitted count;
  if Unicert.Pipeline.coverage_degraded p then begin
    Printf.eprintf "warning: degraded coverage: not every log delivered fully\n";
    4
  end
  else 0

(* Store-backed corpus emission: the pipeline lands (or warm-replays)
   the corpus in the crash-safe store, then the first [count]
   certificates are emitted from their durable DER — byte-identical to
   a live generate run's stdout. *)
let run_corpus_store count seed ~dir ~source (fault : Fault_cli.t) =
  let p =
    Unicert.Pipeline.run ~scale:count ~seed ~policy:fault.Fault_cli.policy
      ?mutator:(Fault_cli.mutator ~default_seed:seed fault)
      ~drop:fault.Fault_cli.drop ~resume:fault.Fault_cli.resume
      ~jobs:fault.Fault_cli.jobs ~source ~store:dir ()
  in
  conclude ~count fault p (fun () ->
      let emitted = ref 0 in
      let db = Store.Db.open_ro ~dir in
      (try
         Store.Db.iter_pairs db (fun recd _row ->
             match recd with
             | Store.Db.Fault _ -> ()
             | Store.Db.Cert { index; der } -> (
                 if !emitted >= count then raise Exit;
                 match X509.Certificate.parse der with
                 | Ok cert ->
                     incr emitted;
                     emit_pem cert
                 | Error e ->
                     Printf.eprintf
                       "error: stored certificate %d unparseable: %s; run \
                        `unicert-store fsck`\n"
                       index (Faults.Error.to_string e);
                     Fault_cli.exit_via 2))
       with Exit -> ());
      !emitted)

(* Live corpus emission through the pipeline driver, with no analysis.
   [--flawed] over-generates and keeps only flawed entries; it runs as
   one shard at every --jobs, so the early stop, the fault ledger and
   the quarantine bytes are those of one sequential pass. *)
let run_corpus_live count seed flawed_only ~source (fault : Fault_cli.t) =
  let p, pems =
    Unicert.Pipeline.collect
      ~scale:(if flawed_only then count * 400 else count)
      ~count ~seed ~policy:fault.Fault_cli.policy
      ?mutator:(Fault_cli.mutator ~default_seed:seed fault)
      ~drop:fault.Fault_cli.drop ~resume:fault.Fault_cli.resume
      ~jobs:(if flawed_only then 1 else fault.Fault_cli.jobs)
      ~source
      ~keep:(fun e -> (not flawed_only) || e.Ctlog.Dataset.flaws <> [])
      (fun e -> X509.Certificate.to_pem e.Ctlog.Dataset.cert)
  in
  conclude ~count fault p (fun () ->
      List.iter print_string pems;
      List.length pems)

let run_corpus count seed flawed_only (fault : Fault_cli.t) =
  let source =
    match fault.Fault_cli.fetch with
    | Some cfg -> Unicert.Pipeline.Fetch cfg
    | None -> Unicert.Pipeline.Generate
  in
  (* Flawed filtering would leave index gaps in the store's contiguous
     spans, and over-fetching the whole partition from the logs: it
     stays a live-generation feature. *)
  let refuse_flawed what =
    if flawed_only then begin
      Printf.eprintf "error: --flawed is not supported with %s\n" what;
      Fault_cli.exit_via 2
    end
  in
  match fault.Fault_cli.store with
  | Some dir ->
      refuse_flawed "--store";
      run_corpus_store count seed ~dir ~source fault
  | None ->
      if Option.is_some fault.Fault_cli.fetch then refuse_flawed "--source fetch";
      run_corpus_live count seed flawed_only ~source fault

let run_mutant field payload st_name =
  let st =
    match Asn1.Str_type.of_name st_name with
    | Some st -> st
    | None -> Asn1.Str_type.Utf8_string
  in
  let mutation =
    match field with
    | "cn" -> Tlsparsers.Testgen.Subject_attr (X509.Attr.Common_name, st, payload)
    | "o" -> Tlsparsers.Testgen.Subject_attr (X509.Attr.Organization_name, st, payload)
    | "san" -> Tlsparsers.Testgen.San_dns payload
    | "email" -> Tlsparsers.Testgen.San_rfc822 payload
    | "uri" -> Tlsparsers.Testgen.San_uri payload
    | "crldp" -> Tlsparsers.Testgen.Crldp_uri payload
    | other ->
        Printf.eprintf "error: unknown field %S (cn|o|san|email|uri|crldp)\n" other;
        exit 2
  in
  emit_pem (Tlsparsers.Testgen.make mutation)

let run mode count seed flawed_only field payload st fault metrics progress
    no_progress =
  if progress then Obs.Progress.set_override (Some true)
  else if no_progress then Obs.Progress.set_override (Some false);
  Fault_cli.set_metrics metrics;
  let code =
    match mode with
    | "corpus" ->
        Fault_cli.guard (fun () -> run_corpus count seed flawed_only fault)
    | "mutant" ->
        run_mutant field payload st;
        0
    | other ->
        Printf.eprintf "error: unknown mode %S (corpus|mutant)\n" other;
        2
  in
  (* 4 = completed with degraded fetch coverage; the funnel flushes
     metrics/trace on every path and applies the precedence law. *)
  Fault_cli.exit_via code

let mode = Arg.(value & pos 0 string "corpus" & info [] ~docv:"MODE" ~doc:"corpus or mutant")
let count = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of corpus certificates")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed")
let flawed_only = Arg.(value & flag & info [ "flawed" ] ~doc:"Emit only noncompliant certificates")
let field = Arg.(value & opt string "san" & info [ "field" ] ~doc:"Mutated field (cn|o|san|email|uri|crldp)")
let payload = Arg.(value & opt string "test\x01.com" & info [ "payload" ] ~doc:"Raw payload bytes")
let st = Arg.(value & opt string "UTF8String" & info [ "string-type" ] ~doc:"Declared ASN.1 string type for DN mutants")
let metrics =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Write collected telemetry at exit: Prometheus text, or JSON when FILE ends in .json")
let progress =
  Arg.(value & flag & info [ "progress" ] ~doc:"Force progress reporting on (default: only on a TTY, and not under OBS_QUIET)")
let no_progress =
  Arg.(value & flag & info [ "no-progress" ] ~doc:"Force progress reporting off")

let cmd =
  let doc = "generate test Unicerts (calibrated corpus samples or field mutants)" in
  Cmd.v (Cmd.info "unicert-gen" ~doc)
    Term.(const run $ mode $ count $ seed $ flawed_only $ field $ payload $ st
          $ Fault_cli.term $ metrics $ progress $ no_progress)

let () = exit (Cmd.eval cmd)
