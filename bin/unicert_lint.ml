(* unicert-lint: run the 95-rule Unicert linter over PEM/DER certificate
   files, zlint-style.  With no files, lints a freshly generated corpus
   sample and prints the per-lint histogram. *)

open Cmdliner

let load_cert path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n in
  close_in ic;
  if String.length bytes > 10 && String.sub bytes 0 10 = "-----BEGIN" then
    X509.Certificate.of_pem bytes
  else X509.Certificate.parse bytes

let lint_file ~issued ~ignore_dates path =
  match load_cert path with
  | Error m -> Printf.printf "%s: PARSE ERROR: %s
" path (Faults.Error.to_string m)
  | Ok cert ->
      let findings =
        Lint.Registry.noncompliant ~respect_effective_dates:(not ignore_dates)
          ~issued cert
      in
      if findings = [] then Printf.printf "%s: compliant (0 findings)\n" path
      else begin
        Printf.printf "%s: %d findings\n" path (List.length findings);
        List.iter
          (fun (f : Lint.finding) ->
            let details =
              match f.Lint.status with
              | Lint.Fail d | Lint.Warn d -> d
              | Lint.Na | Lint.Pass -> []
            in
            Printf.printf "  [%s] %s\n"
              (match Lint.severity f.Lint.lint with
              | Lint.Error -> "ERROR"
              | Lint.Warning -> "WARN ")
              f.Lint.lint.Lint.name;
            List.iter (fun d -> Printf.printf "      %s\n" d) details)
          findings
      end

(* The corpus run is the one pipeline driver; this binary projects its
   aggregate onto the linter's histogram, dated or (footnote 4) with
   every lint applied regardless of its effective date. *)
let lint_corpus ~scale ~seed ~ignore_dates (fault : Fault_cli.t) =
  let policy = fault.Fault_cli.policy in
  let source =
    match fault.Fault_cli.fetch with
    | Some cfg -> Unicert.Pipeline.Fetch cfg
    | None -> Unicert.Pipeline.Generate
  in
  Fault_cli.warn_stale_cursors fault ~scale;
  let p =
    Fault_cli.guard (fun () ->
        Unicert.Pipeline.run ~scale ~seed ~policy
          ?mutator:(Fault_cli.mutator ~default_seed:seed fault)
          ~drop:fault.Fault_cli.drop ~resume:fault.Fault_cli.resume
          ~jobs:fault.Fault_cli.jobs ~source ?store:fault.Fault_cli.store ())
  in
  let faults = p.Unicert.Pipeline.faults in
  let nc, counts =
    if ignore_dates then
      (p.Unicert.Pipeline.nc_ignoring_dates, p.Unicert.Pipeline.lints_ignoring_dates)
    else (p.Unicert.Pipeline.nc_total, p.Unicert.Pipeline.lints)
  in
  let total = p.Unicert.Pipeline.total in
  Printf.printf "linted %d generated Unicerts: %d noncompliant (%.2f%%)\n" total nc
    (if total = 0 then 0.0 else 100.0 *. float_of_int nc /. float_of_int total);
  let faulted = faults.Unicert.Pipeline.fault_errors in
  if faulted > 0 then
    Printf.printf "  %d faulted certificate(s)%s\n" faulted
      (match policy.Faults.Policy.quarantine_dir with
      | Some dir -> Printf.sprintf " quarantined under %s" dir
      | None -> "");
  List.iter
    (fun (name, crashes) ->
      Printf.printf "  degraded lint: %s (breaker open, %d crashes)\n" name crashes)
    faults.Unicert.Pipeline.degraded;
  (match faults.Unicert.Pipeline.aborted with
  | Some reason ->
      Printf.eprintf "error: run aborted: %s\n" reason;
      Fault_cli.exit_via 3
  | None -> Fault_cli.cleanup_stale_cursors fault ~scale);
  (* Descending count, ties broken by name: deterministic across runs. *)
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort (fun (ka, va) (kb, vb) ->
           match compare vb va with 0 -> String.compare ka kb | c -> c)
  in
  List.iter (fun (k, v) -> Printf.printf "  %-55s %d\n" k v) rows;
  let findings_total = List.fold_left (fun acc (_, v) -> acc + v) 0 rows in
  Printf.printf "  %-55s %d findings across %d lints\n" "TOTAL" findings_total
    (List.length rows);
  match p.Unicert.Pipeline.coverage with
  | [] -> 0
  | covs ->
      let healthy =
        List.length (List.filter Ctlog.Fetch.coverage_complete covs)
      in
      let expected =
        List.fold_left (fun a (c : Ctlog.Fetch.coverage) -> a + c.Ctlog.Fetch.expected) 0 covs
      in
      let delivered =
        List.fold_left (fun a (c : Ctlog.Fetch.coverage) -> a + c.Ctlog.Fetch.delivered) 0 covs
      in
      let complete = healthy = List.length covs in
      Printf.printf "  coverage: %s %d/%d logs, %.1f%% entries\n"
        (if complete then "complete" else "degraded")
        healthy (List.length covs)
        (if expected = 0 then 100.0
         else 100.0 *. float_of_int delivered /. float_of_int expected);
      if complete then 0 else 4

let list_rules () =
  Lint.Rulebook.render_catalogue Format.std_formatter

let json_findings path findings =
  Printf.printf "{\"file\": %s, \"findings\": [" (Obs.Jsonv.escape path);
  List.filter_map
    (fun (f : Lint.finding) -> Lint.Rulebook.covering_lint f.Lint.lint.Lint.name)
    findings
  |> List.iteri (fun i rule ->
         if i > 0 then print_string ", ";
         Format.printf "%a" Lint.Rulebook.render_json rule);
  Format.printf "]}\n%!"

let run files corpus scale seed ignore_dates issued_str list_lints json fault ()
    () =
  let issued =
    match Asn1.Time.of_generalized (issued_str ^ "000000Z") with
    | Ok t -> t
    | Error _ -> Asn1.Time.make 2024 6 1
  in
  let exit_code = ref 0 in
  if list_lints then list_rules ()
  else if corpus || files = [] then
    exit_code := lint_corpus ~scale ~seed ~ignore_dates fault
  else if json then
    List.iter
      (fun path ->
        match load_cert path with
        | Error m ->
            Printf.printf "{\"file\": %s, \"error\": %s}\n" (Obs.Jsonv.escape path)
              (Obs.Jsonv.escape (Faults.Error.to_string m))
        | Ok cert ->
            json_findings path
              (Lint.Registry.noncompliant ~respect_effective_dates:(not ignore_dates)
                 ~issued cert))
      files
  else List.iter (lint_file ~issued ~ignore_dates) files;
  (* 4 = completed with degraded fetch coverage.  The funnel flushes
     metrics/trace on every path and applies the precedence law. *)
  if !exit_code <> 0 then
    Printf.eprintf "warning: degraded coverage: not every log delivered fully\n";
  Fault_cli.exit_via !exit_code

let files = Arg.(value & pos_all file [] & info [] ~docv:"CERT" ~doc:"PEM or DER certificate files")
let scale = Arg.(value & opt int 2000 & info [ "scale" ] ~doc:"Generated corpus size when no files are given")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Corpus seed")
let ignore_dates =
  Arg.(value & flag & info [ "ignore-effective-dates" ] ~doc:"Apply every lint regardless of its effective date")
let issued =
  Arg.(value & opt string "20240601" & info [ "issued" ] ~doc:"Assumed issuance date (YYYYMMDD) for file linting")
let list_lints =
  Arg.(value & flag & info [ "list" ] ~doc:"Print the 95-rule catalogue as JSON and exit")
let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as JSON")
let corpus =
  Arg.(value & flag & info [ "corpus" ] ~doc:"Lint a freshly generated corpus sample (the default when no files are given)")

let cmd =
  let doc = "lint X.509 certificates against the 95 Unicert constraint rules" in
  Cmd.v (Cmd.info "unicert-lint" ~doc)
    Term.(const run $ files $ corpus $ scale $ seed $ ignore_dates $ issued
          $ list_lints $ json $ Fault_cli.term $ Fault_cli.metrics
          $ Fault_cli.progress)

let () = exit (Cmd.eval cmd)
