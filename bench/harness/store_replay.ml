(* store_replay: keeping the results in the on-disk store.  Set-up
   cold-builds the store (generate, analyze, persist).  The closed loop
   then repeats one cycle: three warm replays (segment reads and the
   row codec; no parsing, no linting), one incremental recompute after
   the manifest's lint list loses its last lint (DER parsing, that one
   lint, rows and indexes rewritten), and one fsck sweep. *)

(* One store-backed report job: a cold build on an empty directory, a
   warm replay on a complete store, a recompute after a lint change. *)
let pass ~dir ~scale ~seed =
  let t = Unicert.Pipeline.run ~scale ~seed ~store:dir () in
  (t.Unicert.Pipeline.total, Batch_report.digest t)

let setup ~seed ~scale ~dir =
  let total, d = pass ~dir ~scale ~seed in
  if total <> scale then exit 1;
  print_endline d

(* Make the store look as if a build lacking the registry's last lint
   wrote it, so the next store-backed pass recomputes that column. *)
let drop_last_lint dir =
  let db = Store.Db.open_ro ~dir in
  let man = Store.Db.manifest db in
  let lints = String.split_on_char ';' man.Store.Manifest.lints in
  let older = List.filteri (fun i _ -> i < List.length lints - 1) lints in
  Store.Db.commit db { man with Store.Manifest.lints = String.concat ";" older }

let fsck_clean dir =
  let r = Store.Db.fsck ~dir () in
  r.Store.Db.issues = [] && r.Store.Db.usable

let der_bytes dir =
  let db = Store.Db.open_ro ~dir in
  let n = ref 0 in
  Store.Db.iter_pairs db (fun recd _ ->
      match recd with
      | Store.Db.Cert { der; _ } | Store.Db.Fault { der; _ } -> n := !n + String.length der);
  !n

let store_dirs (ctx : Common.ctx) =
  List.init Spec.setups (fun i -> Filename.concat ctx.work (Printf.sprintf "store-%d" i))

let measure (ctx : Common.ctx) =
  let out = Outcome.create () in
  let scale = ctx.Common.sizes.Spec.store_scale and seed = ctx.seed in
  let dirs = store_dirs ctx in
  let setups =
    Common.setup_runs ctx out ~args:(fun i ->
        [ "--scale"; string_of_int scale; "--dir"; List.nth dirs i ])
  in
  (* The storeless batch path at the same (scale, seed) gives the report
     every store-backed pass must render; it also warms this process up. *)
  let total, want = Batch_report.job ~scale ~seed ~jobs:1 in
  Outcome.check out "storeless reference pass processes every certificate" (total = scale);
  List.iter
    (fun (_, d) -> Outcome.check out "cold build renders the storeless report" (d = want))
    setups;
  let dir = List.nth dirs (Spec.setups - 1) in
  List.iteri (fun i d -> if i < Spec.setups - 1 then Proc.rm_rf d) dirs;
  let warm_s = ref [] and recompute_s = ref [] and fsck_s = ref [] in
  let step = ref 0 in
  ignore
    (Common.loop ctx (fun () ->
        let k = !step mod 5 in
        incr step;
        if k < 3 then begin
          let dt, (total, d) = Common.time (fun () -> pass ~dir ~scale ~seed) in
          Outcome.check out "warm replay renders the storeless report" (total = scale && d = want);
          warm_s := dt :: !warm_s;
          dt
        end
        else if k = 3 then begin
          drop_last_lint dir;
          let dt, (total, d) = Common.time (fun () -> pass ~dir ~scale ~seed) in
          Outcome.check out "incremental recompute renders the storeless report"
            (total = scale && d = want);
          recompute_s := dt :: !recompute_s;
          dt
        end
        else begin
          let dt, clean = Common.time (fun () -> fsck_clean dir) in
          Outcome.check out "fsck is clean" clean;
          fsck_s := dt :: !fsck_s;
          dt
        end));
  let warm_total = List.fold_left ( +. ) 0. !warm_s in
  Common.e2e out ~setup:(List.map fst setups)
    ~items:(float_of_int (scale * List.length !warm_s))
    ~busy:warm_total
    ~rates:(List.map (fun dt -> float_of_int scale /. dt) !warm_s)
    ~latencies:!warm_s
    ~rss_mb:(Proc.peak_rss_mb "self");
  let med l = Stats.median (Stats.sorted l) in
  Outcome.detail out "report_sha256" (Json.str want);
  Outcome.detail out "warm_replays" (Json.int (List.length !warm_s));
  Outcome.detail out "recompute_certs_per_s"
    (Json.num (float_of_int scale /. med !recompute_s));
  Outcome.detail out "fsck_ms" (Json.num (1000. *. med !fsck_s));
  Outcome.detail out "store_bytes_per_der_byte"
    (Json.num (float_of_int (Proc.dir_bytes dir) /. float_of_int (der_bytes dir)));
  out

let last_lint () =
  match List.rev Lint.Registry.all with l :: _ -> l.Lint.name | [] -> ""

(* Per-layer replica: the public calls of the warm replay (segment
   scan, row codec, issuer and lint rehydration) and of the recompute
   (DER parse, the missing lint, the row codec), followed by the real
   store-backed passes and an fsck. *)
let trace (ctx : Common.ctx) ~trace_file =
  let out = Outcome.create () in
  let scale = ctx.Common.sizes.Spec.store_scale and seed = ctx.seed in
  let dir = List.hd (store_dirs ctx) in
  let total, want = pass ~dir ~scale ~seed in
  Outcome.check out "cold build processes every certificate" (total = scale);
  let missing = last_lint () in
  let decode rowstr =
    match Spans.span ~role:Decode "core.pipeline.decode_row" (fun () -> Unicert.Pipeline.decode_row rowstr) with
    | Ok row -> Some row
    | Error _ -> None
  in
  let replica () =
    let db = Spans.span ~role:Source "store.db.open_ro" (fun () -> Store.Db.open_ro ~dir) in
    (* warm replay *)
    Spans.span ~role:Source "store.db.iter_pairs" (fun () ->
        Store.Db.iter_pairs db (fun _ rowstr ->
            match decode rowstr with
            | None -> ()
            | Some row ->
                ignore
                  (Spans.span ~role:Analyze "ctlog.dataset.issuer_of_org" (fun () ->
                       Ctlog.Dataset.issuer_of_org (Unicert.Pipeline.row_org row)));
                ignore
                  (Spans.span ~role:Analyze "lint.registry.find" (fun () ->
                       List.filter_map Lint.Registry.find (Unicert.Pipeline.row_nc row)))));
    (* incremental recompute of the last lint *)
    Spans.span ~role:Source "store.db.iter_pairs" (fun () ->
        Store.Db.iter_pairs db (fun recd rowstr ->
            match (recd, decode rowstr) with
            | Store.Db.Cert { der; _ }, Some row -> (
                match
                  Spans.span ~role:Decode "x509.certificate.parse" (fun () ->
                      X509.Certificate.parse der)
                with
                | Ok cert ->
                    let issued = fst cert.X509.Certificate.tbs.X509.Certificate.not_before in
                    ignore
                      (Spans.span ~role:Analyze "lint.registry.run" (fun () ->
                           Lint.Registry.run ~respect_effective_dates:false
                             ~only:(fun l -> l.Lint.name = missing)
                             ~issued cert));
                    ignore
                      (Spans.span ~role:Output "core.pipeline.encode_row" (fun () ->
                           Unicert.Pipeline.encode_row row))
                | Error _ -> ())
            | _ -> ()))
  in
  let traced_pass what name =
    let t =
      Spans.span name (fun () -> Unicert.Pipeline.run ~scale ~seed ~store:dir ())
    in
    let d = Spans.span ~role:Output "core.report.all" (fun () -> Batch_report.digest t) in
    Outcome.check out what (t.Unicert.Pipeline.total = scale && d = want)
  in
  let real () =
    traced_pass "traced warm replay renders the cold report" "core.pipeline.run(warm)";
    drop_last_lint dir;
    traced_pass "traced recompute renders the cold report" "core.pipeline.run(recompute)";
    Outcome.check out "fsck is clean"
      (Spans.span ~role:Output "store.db.fsck" (fun () -> fsck_clean dir))
  in
  Common.trace_rounds ctx out ~items:(2 * scale) ~replica ~real ~trace_file;
  out
