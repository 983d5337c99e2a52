(* batch_report: what `unicert_report all` users wait for.  A closed
   loop with one caller; each request is a full corpus pass at jobs=1
   (generation, Lint.Ctx, the 95 lints, classify, aggregate) plus the
   rendered report. *)

let render (t : Unicert.Pipeline.t) =
  let b = Buffer.create 16384 in
  let ppf = Format.formatter_of_buffer b in
  Unicert.Report.all ppf t;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let digest t = Ucrypto.Sha256.hex (render t)

(* One report job: (certificates processed, report SHA-256). *)
let job ~scale ~seed ~jobs =
  let t = Unicert.Pipeline.run ~scale ~seed ~jobs () in
  (t.Unicert.Pipeline.total, digest t)

(* Set-up: a fresh process renders its first report — module
   initialisation, lazy tables and one request's work. *)
let setup ~seed ~scale =
  let total, d = job ~scale ~seed ~jobs:1 in
  if total <> scale then exit 1;
  print_endline d

let measure (ctx : Common.ctx) =
  let out = Outcome.create () in
  let scale = ctx.Common.sizes.Spec.batch_scale and seed = ctx.seed in
  let setups = Common.setup_runs ctx out ~args:(fun _ -> [ "--scale"; string_of_int scale ]) in
  (* Untimed warm-up at jobs=2: every timed pass must render this same
     report. *)
  let total, want = job ~scale ~seed ~jobs:2 in
  Outcome.check out "warm-up pass processes every certificate" (total = scale);
  List.iter
    (fun (_, d) -> Outcome.check out "a fresh process renders the same report" (d = want))
    setups;
  let lat = ref [] in
  let busy =
    Common.loop ctx (fun () ->
        let dt, (total, d) = Common.time (fun () -> job ~scale ~seed ~jobs:1) in
        Outcome.check out
          "pass processes every certificate and renders the same report as at jobs 1 and 2"
          (total = scale && d = want);
        lat := dt :: !lat;
        dt)
  in
  Common.e2e out ~setup:(List.map fst setups)
    ~items:(float_of_int (scale * List.length !lat))
    ~busy
    ~rates:(List.map (fun dt -> float_of_int scale /. dt) !lat)
    ~latencies:!lat ~rss_mb:(Proc.peak_rss_mb "self");
  Outcome.detail out "report_sha256" (Json.str want);
  Outcome.detail out "passes" (Json.int (List.length !lat));
  out

(* Per-layer replica: the fused engine's per-certificate calls in the
   order Pipeline.run makes them. *)
let trace (ctx : Common.ctx) ~trace_file =
  let out = Outcome.create () in
  let scale = ctx.Common.sizes.Spec.batch_scale and seed = ctx.seed in
  let _, want = job ~scale ~seed ~jobs:1 in
  let replica () =
    for i = 0 to scale - 1 do
      let entry =
        Spans.span ~role:Source "ctlog.dataset.generate_at" (fun () ->
            Ctlog.Dataset.generate_at ~seed i)
      in
      let lctx =
        Spans.span ~role:Decode "lint.ctx.of_cert" (fun () ->
            Lint.Ctx.of_cert entry.Ctlog.Dataset.cert)
      in
      ignore
        (Spans.span ~role:Analyze "lint.registry.run_ctx" (fun () ->
             Lint.Registry.run_ctx ~respect_effective_dates:false
               ~issued:entry.Ctlog.Dataset.issued lctx));
      ignore
        (Spans.span ~role:Analyze "core.classify.unicode_fields_of_ctx" (fun () ->
             Unicert.Classify.unicode_fields_of_ctx lctx))
    done
  in
  let real () =
    let t =
      Spans.span "core.pipeline.run" (fun () -> Unicert.Pipeline.run ~scale ~seed ~jobs:1 ())
    in
    let d = Spans.span ~role:Output "core.report.all" (fun () -> digest t) in
    Outcome.check out "traced pass renders the untraced report"
      (t.Unicert.Pipeline.total = scale && d = want)
  in
  Common.trace_rounds ctx out ~items:scale ~replica ~real ~trace_file;
  out
