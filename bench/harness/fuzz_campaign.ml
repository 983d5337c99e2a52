(* fuzz_campaign: the differential fuzzer.  A closed loop of campaigns
   at one seed and budget, jobs=1: candidate generation, our X.509
   parser and the nine parser models carry the work; the corpus
   pipeline and the store do none.  Campaigns are deterministic, so
   every repeat must return the same findings. *)

let config ~seed ~budget =
  { Fuzz.Campaign.default_config with Fuzz.Campaign.seed; budget; jobs = 1 }

(* What a repeat must reproduce exactly. *)
let fingerprint (r : Fuzz.Campaign.t) =
  let findings =
    List.map
      (fun (f : Fuzz.Findings.finding) -> f.Fuzz.Findings.cluster ^ "/" ^ f.Fuzz.Findings.signature)
      r.Fuzz.Campaign.findings
  in
  Ucrypto.Sha256.hex
    (String.concat "\n"
       (Printf.sprintf "signatures=%d first=%s executions=%d" r.Fuzz.Campaign.signatures
          (match r.Fuzz.Campaign.first_disagreement with
          | Some e -> string_of_int e
          | None -> "none")
          r.Fuzz.Campaign.executions
       :: findings))

(* Set-up: a fresh process runs its first campaign — parser models,
   the initial corpus, lazy tables and one request's work. *)
let setup ~seed ~budget =
  let r = Fuzz.Campaign.run (config ~seed ~budget) in
  if r.Fuzz.Campaign.executions <> budget then exit 1;
  print_endline (fingerprint r)

let measure (ctx : Common.ctx) =
  let out = Outcome.create () in
  let budget = ctx.Common.sizes.Spec.fuzz_budget in
  let cfg = config ~seed:ctx.seed ~budget in
  let setups = Common.setup_runs ctx out ~args:(fun _ -> [ "--budget"; string_of_int budget ]) in
  (* Untimed warm-up: fixes what every repeat must reproduce. *)
  let first = Fuzz.Campaign.run cfg in
  let want = fingerprint first in
  Outcome.check out "warm-up campaign runs its whole budget"
    (first.Fuzz.Campaign.executions = budget);
  List.iter
    (fun (_, f) -> Outcome.check out "a fresh process finds the same findings" (f = want))
    setups;
  let lat = ref [] in
  let busy =
    Common.loop ctx (fun () ->
        let dt, r = Common.time (fun () -> Fuzz.Campaign.run cfg) in
        Outcome.check out "campaign repeats its findings, signatures and first disagreement"
          (r.Fuzz.Campaign.executions = budget && fingerprint r = want);
        lat := dt :: !lat;
        dt)
  in
  Common.e2e out ~setup:(List.map fst setups)
    ~items:(float_of_int (budget * List.length !lat))
    ~busy
    ~rates:(List.map (fun dt -> float_of_int budget /. dt) !lat)
    ~latencies:!lat ~rss_mb:(Proc.peak_rss_mb "self");
  Outcome.detail out "campaigns" (Json.int (List.length !lat));
  Outcome.detail out "findings" (Json.int (List.length first.Fuzz.Campaign.findings));
  Outcome.detail out "signatures_per_kexec"
    (Json.num (float_of_int first.Fuzz.Campaign.signatures *. 1000. /. float_of_int budget));
  Outcome.detail out "findings_sha256" (Json.str want);
  out

(* Per-layer replica: generation, the X.509 parse and the
   differential evaluation of [budget] candidates drawn with the
   campaign's seed against the findings of a first campaign as the
   mutation corpus; then the real campaign and its clustered output. *)
let trace (ctx : Common.ctx) ~trace_file =
  let out = Outcome.create () in
  let budget = ctx.Common.sizes.Spec.fuzz_budget and seed = ctx.seed in
  let cfg = config ~seed ~budget in
  let first = Fuzz.Campaign.run cfg in
  let want = fingerprint first in
  let corpus =
    Array.of_list (List.map (fun (f : Fuzz.Findings.finding) -> f.Fuzz.Findings.der) first.Fuzz.Campaign.findings)
  in
  let round_size = cfg.Fuzz.Campaign.round_size in
  let replica () =
    for i = 0 to budget - 1 do
      let spec =
        Spans.span ~role:Source "fuzz.gen.candidate" (fun () ->
            Fuzz.Gen.candidate ~seed ~round:(i / round_size) ~index:(i mod round_size) ~corpus)
      in
      ignore
        (Spans.span ~role:Decode "x509.certificate.parse" (fun () ->
             X509.Certificate.parse spec.Fuzz.Gen.der));
      ignore
        (Spans.span ~role:Analyze "fuzz.exec.eval" (fun () -> Fuzz.Exec.eval spec.Fuzz.Gen.der))
    done
  in
  let real () =
    let r = Spans.span "fuzz.campaign.run" (fun () -> Fuzz.Campaign.run cfg) in
    Spans.span ~role:Output "fuzz.findings.clusters" (fun () ->
        ignore (Fuzz.Findings.clusters r.Fuzz.Campaign.findings);
        List.iter (fun f -> ignore (Fuzz.Findings.to_json f)) r.Fuzz.Campaign.findings);
    Outcome.check out "traced campaign repeats its findings" (fingerprint r = want)
  in
  Common.trace_rounds ctx out ~items:budget ~replica ~real ~trace_file;
  out
