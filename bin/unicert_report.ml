(* unicert-report: run one experiment by its DESIGN.md id, or the whole
   evaluation with [paper]. *)

open Cmdliner

let banner ppf title =
  Format.fprintf ppf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* Every section of the paper's evaluation in order: RQ1 from the
   corpus pipeline, RQ2-RQ3 and Appendix F.1 from fixed inputs. *)
let paper ppf (t : Unicert.Pipeline.t) =
  Format.fprintf ppf "unicert experiment harness — corpus scale %d, seed %d@."
    t.Unicert.Pipeline.scale t.Unicert.Pipeline.seed;
  banner ppf "RQ1 — Unicert issuance compliance (FIG2, TAB1, TAB2, FIG3, FIG4, TAB11, SEC51)";
  Unicert.Report.all ppf t;
  banner ppf "RQ2 — TLS library parsing (TAB4, TAB5, Appendix E)";
  Tlsparsers.Apis.render ppf;
  Format.fprintf ppf "@.";
  Tlsparsers.Harness.render ppf;
  banner ppf "RQ3 — CT monitor misleading (TAB6)";
  Monitors.Audit.render ppf;
  banner ppf "RQ3 — Traffic obfuscation (TAB3, SEC62)";
  Middlebox.Obfuscation.render ppf;
  Middlebox.Evasion.render ppf;
  banner ppf "Appendix F.1 — Browser rendering (TAB14, FIG7)";
  Unicert.Browsers.render ppf

(* Single-table ids annotate fetch coverage after their table ([all]
   and [paper] already render the section themselves). *)
let with_coverage render ppf t =
  render ppf t;
  Unicert.Report.coverage ppf t

(* Every experiment id and its renderer.  A corpus renderer forces the
   pipeline run; a fixed one never starts it. *)
let experiments =
  let corpus render ppf pipeline = render ppf (Lazy.force pipeline) in
  let fixed render ppf _ = render ppf in
  [
    ("fig2", corpus (with_coverage Unicert.Report.figure2));
    ("tab1", corpus (with_coverage Unicert.Report.table1));
    ("tab2", corpus (with_coverage Unicert.Report.table2));
    ("fig3", corpus (with_coverage Unicert.Report.figure3));
    ("fig4", corpus (with_coverage Unicert.Report.figure4));
    ("tab11", corpus (with_coverage Unicert.Report.table11));
    ("sec51", corpus (with_coverage Unicert.Report.section51));
    ("ablations", corpus (with_coverage Unicert.Report.ablations));
    ("summary", corpus (with_coverage Unicert.Report.summary));
    ("tab3", fixed Middlebox.Obfuscation.render);
    ("tab4", fixed Tlsparsers.Harness.render);
    ("tab5", fixed Tlsparsers.Harness.render);
    ("tab6", fixed Monitors.Audit.render);
    ("sec62", fixed Middlebox.Evasion.render);
    ("tab14", fixed Unicert.Browsers.render);
    ("fig7", fixed Unicert.Browsers.render);
    ("apis", fixed Tlsparsers.Apis.render);
    ("rules", fixed Lint.Rulebook.render_catalogue);
    ("all", corpus Unicert.Report.all);
    ("paper", corpus paper);
  ]

let ids = String.concat " " (List.map fst experiments)

let run id scale seed (fault : Fault_cli.t) () () =
  let render =
    match List.assoc_opt (String.lowercase_ascii id) experiments with
    | Some render -> render
    | None ->
        Printf.eprintf "error: unknown experiment %S; ids: %s\n" id ids;
        Fault_cli.exit_via 2
  in
  Tlsparsers.Harness.set_breaker_threshold
    fault.Fault_cli.policy.Faults.Policy.breaker_threshold;
  let ppf = Format.std_formatter in
  let aborted = ref None in
  let degraded = ref false in
  let source =
    match fault.Fault_cli.fetch with
    | Some cfg -> Unicert.Pipeline.Fetch cfg
    | None -> Unicert.Pipeline.Generate
  in
  Fault_cli.warn_stale_cursors fault ~scale;
  let pipeline =
    lazy
      (let t =
         Fault_cli.guard (fun () ->
             Unicert.Pipeline.run ~scale ~seed ~policy:fault.Fault_cli.policy
               ?mutator:(Fault_cli.mutator ~default_seed:seed fault)
               ~drop:fault.Fault_cli.drop ~resume:fault.Fault_cli.resume
               ~jobs:fault.Fault_cli.jobs ~source ?store:fault.Fault_cli.store ())
       in
       aborted := t.Unicert.Pipeline.faults.Unicert.Pipeline.aborted;
       degraded := Unicert.Pipeline.coverage_degraded t;
       if !aborted = None then Fault_cli.cleanup_stale_cursors fault ~scale;
       t)
  in
  render ppf pipeline;
  Format.pp_print_flush ppf ();
  (* Exit codes: 3 = the pass aborted (fail-fast / max-errors), 4 = it
     completed but with degraded fetch coverage (abandoned log, split
     view, page gaps) — distinguishable by callers and CI.  The funnel
     flushes metrics/trace on every path and applies the precedence
     law (a flush failure never masks 3/4). *)
  let code =
    match !aborted with
    | Some reason ->
        Printf.eprintf "error: run aborted: %s\n" reason;
        3
    | None ->
        if !degraded then begin
          Printf.eprintf
            "warning: degraded coverage: see the Coverage section\n";
          4
        end
        else 0
  in
  Fault_cli.exit_via code

let id =
  Arg.(value & pos 0 string "summary"
       & info [] ~docv:"EXPERIMENT" ~doc:("Experiment id from DESIGN.md, one of: " ^ ids))
let scale = Arg.(value & opt int Ctlog.Dataset.default_scale & info [ "scale" ] ~doc:"Corpus size")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Corpus seed")

let cmd =
  let doc = "regenerate one of the paper's tables or figures, or all of them" in
  Cmd.v (Cmd.info "unicert-report" ~doc)
    Term.(const run $ id $ scale $ seed $ Fault_cli.term $ Fault_cli.metrics
          $ Fault_cli.progress)

let () = exit (Cmd.eval cmd)
