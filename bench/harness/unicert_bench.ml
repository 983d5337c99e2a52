(* unicert_bench: the end-to-end benchmark of the unicert system.

     unicert_bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     unicert_bench compare BASE.jsonl NEW.jsonl [--spec BENCHMARK.json]
     unicert_bench smoke --spec BENCHMARK.json

   [run] measures one workload (or, without --workload, each in its own
   child process) for S seconds, checks its outputs, prints the metrics
   with their units, and ends stdout with one JSON result line.  With
   --trace 1 it reports the per-layer metrics instead.  --out appends
   the full result record (host fingerprint, sizes, spreads, detail) to
   FILE.  Scratch files live under .bench_out/ in the working
   directory. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("unicert_bench: " ^ s);
      exit 2)
    fmt

(* "--key value" options (only [allowed] keys) and positional words. *)
let parse_args ~allowed args =
  let rec go opts pos = function
    | k :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> (
        let key = String.sub k 2 (String.length k - 2) in
        if not (List.mem key allowed) then die "unknown option %s" k;
        match rest with
        | v :: rest -> go ((key, v) :: opts) pos rest
        | [] -> die "option %s needs a value" k)
    | w :: rest -> go opts (w :: pos) rest
    | [] -> (List.rev opts, List.rev pos)
  in
  go [] [] args

let opt_int opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "--%s wants an integer" k)

let opt_float opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> (
      match float_of_string_opt v with
      | Some f when f > 0. -> f
      | _ -> die "--%s wants a positive number" k)

let out_root = ".bench_out"

let daemon_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/unicert_monitord.exe"

let sizes_json (s : Spec.sizes) =
  Json.obj
    [
      ("batch_scale", Json.int s.Spec.batch_scale);
      ("store_scale", Json.int s.store_scale);
      ("fuzz_budget", Json.int s.fuzz_budget);
      ("monitor_ticks", Json.int s.monitor_ticks);
      ("query_window", Json.num s.query_window);
      ("query_rate", Json.num Spec.query_rate);
    ]

let execute (ctx : Common.ctx) ~trace =
  let trace_file =
    Filename.concat out_root (Printf.sprintf "trace-%s-seed%d.jsonl" ctx.workload ctx.seed)
  in
  match (ctx.workload, trace) with
  | "batch_report", false -> Batch_report.measure ctx
  | "batch_report", true -> Batch_report.trace ctx ~trace_file
  | "store_replay", false -> Store_replay.measure ctx
  | "store_replay", true -> Store_replay.trace ctx ~trace_file
  | "monitor_live", false -> Monitor_live.measure ctx
  | "monitor_live", true -> Monitor_live.trace ctx ~trace_file
  | "fuzz_campaign", false -> Fuzz_campaign.measure ctx
  | "fuzz_campaign", true -> Fuzz_campaign.trace ctx ~trace_file
  | w, _ -> die "unknown workload %s (one of: %s)" w (String.concat ", " Spec.workloads)

(* Run [f] with a fresh scratch directory, removed afterwards. *)
let with_work name f =
  let work = Filename.concat out_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Proc.rm_rf work;
  Proc.mkdir_p work;
  Fun.protect
    ~finally:(fun () ->
      Proc.kill_all ();
      Proc.rm_rf work)
    (fun () -> f work)

let context ~workload ~seed ~seconds ~sizes ~work =
  { Common.workload; seed; seconds; sizes; work; exe = Sys.executable_name; daemon = daemon_exe () }

let run_one ~workload ~seed ~seconds ~trace ~out_file =
  if not (List.mem workload Spec.workloads) then
    die "unknown workload %s (one of: %s)" workload (String.concat ", " Spec.workloads);
  let outcome =
    with_work ("work-" ^ workload) (fun work ->
        execute (context ~workload ~seed ~seconds ~sizes:Spec.full ~work) ~trace)
  in
  Outcome.print_human outcome ~workload ~seed;
  Option.iter
    (fun file ->
      Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat ] 0o644 file (fun oc ->
          output_string oc
            (Json.to_string
               (Outcome.record outcome ~workload ~seed ~seconds ~trace
                  ~sizes:(sizes_json Spec.full)));
          output_char oc '\n'))
    out_file;
  print_endline (Outcome.line outcome);
  0

let run args =
  let opts, pos = parse_args ~allowed:[ "workload"; "seed"; "seconds"; "trace"; "out" ] args in
  if pos <> [] then die "run takes no positional arguments";
  let seed = opt_int opts "seed" ~default:Spec.default_seed in
  let seconds = opt_float opts "seconds" ~default:Spec.default_seconds in
  let trace =
    match List.assoc_opt "trace" opts with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die "--trace wants 0 or 1, not %s" v
  in
  let out_file = List.assoc_opt "out" opts in
  Proc.mkdir_p out_root;
  match List.assoc_opt "workload" opts with
  | Some workload -> run_one ~workload ~seed ~seconds ~trace ~out_file
  | None ->
      (* each workload in its own child process *)
      let failed =
        List.filter
          (fun w ->
            let args =
              [ "run"; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
                Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
              @ match out_file with Some f -> [ "--out"; f ] | None -> []
            in
            let pid = Proc.spawn ~stdout:Unix.stdout Sys.executable_name args in
            Proc.wait pid <> Unix.WEXITED 0)
          Spec.workloads
      in
      if failed <> [] then begin
        Printf.eprintf "unicert_bench: failed: %s\n" (String.concat ", " failed);
        1
      end
      else 0

(* A set-up process: the work a fresh process pays before its first
   answer (see each workload's [setup]). *)
let setup args =
  let opts, _ =
    parse_args ~allowed:[ "workload"; "seed"; "scale"; "budget"; "dir" ] args
  in
  let seed = opt_int opts "seed" ~default:Spec.default_seed in
  let scale = opt_int opts "scale" ~default:0 in
  (match List.assoc_opt "workload" opts with
  | Some "batch_report" -> Batch_report.setup ~seed ~scale
  | Some "store_replay" -> (
      match List.assoc_opt "dir" opts with
      | Some dir -> Store_replay.setup ~seed ~scale ~dir
      | None -> die "setup store_replay needs --dir")
  | Some "fuzz_campaign" -> Fuzz_campaign.setup ~seed ~budget:(opt_int opts "budget" ~default:0)
  | _ -> die "setup: no set-up process for this workload");
  0

let compare args =
  let opts, pos = parse_args ~allowed:[ "spec" ] args in
  match pos with
  | [ base; next ] -> (
      let spec = Option.value (List.assoc_opt "spec" opts) ~default:"BENCHMARK.json" in
      match Compare.main ~spec ~base ~next with
      | code -> code
      | exception Failure msg -> die "compare: %s" msg)
  | _ -> die "compare BASE.jsonl NEW.jsonl [--spec BENCHMARK.json]"

(* Every workload, untraced and traced, at toy sizes: outputs check out,
   every metric BENCHMARK.json names is reported with its unit, the
   result line parses back, and a result compared with itself shows no
   regression. *)
let smoke args =
  let opts, _ = parse_args ~allowed:[ "spec" ] args in
  let spec = match List.assoc_opt "spec" opts with Some s -> s | None -> die "smoke needs --spec" in
  let bm = Compare.load_benchmark spec in
  let problems = ref [] in
  let expect what ok = if not ok then problems := what :: !problems in
  expect "BENCHMARK.json workloads match the runner" (bm.Compare.workloads = Spec.workloads);
  expect "BENCHMARK.json end-to-end metrics match the runner"
    (List.map (fun (b : Compare.bound) -> (b.Compare.name, b.Compare.unit_)) bm.Compare.end_to_end
    = Spec.end_to_end);
  expect "BENCHMARK.json per-layer metrics match the runner" (bm.Compare.per_layer = Spec.per_layer);
  Proc.mkdir_p out_root;
  let records =
    with_work "smoke" (fun work ->
        List.concat_map
          (fun workload ->
            List.map
              (fun trace ->
                let t0 = Unix.gettimeofday () in
                let ctx =
                  context ~workload ~seed:Spec.default_seed ~seconds:0.5 ~sizes:Spec.toy ~work
                in
                let o = execute ctx ~trace in
                let tag = Printf.sprintf "%s (trace %b)" workload trace in
                let want = if trace then Spec.per_layer else Spec.end_to_end in
                expect (tag ^ ": outputs check out") (Outcome.correct o);
                List.iter (fun p -> expect (tag ^ ": " ^ p) false) o.Outcome.problems;
                expect (tag ^ ": reports exactly the listed metrics with their units")
                  (List.map (fun (m : Outcome.metric) -> (m.Outcome.name, m.Outcome.unit_)) (Outcome.metrics o)
                  = want);
                expect (tag ^ ": every metric is a finite number")
                  (List.for_all (fun (m : Outcome.metric) -> Float.is_finite m.Outcome.value) (Outcome.metrics o));
                (match Obs.Jsonv.parse (Outcome.line o) with
                | Ok v ->
                    expect (tag ^ ": result line has the four keys")
                      (match v with
                      | Obs.Jsonv.Obj kvs -> List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]
                      | _ -> false)
                | Error e -> expect (tag ^ ": result line parses: " ^ e) false);
                Printf.printf "bench-smoke: %-36s %.2fs\n%!" tag (Unix.gettimeofday () -. t0);
                Outcome.record o ~workload ~seed:Spec.default_seed ~seconds:0.5 ~trace
                  ~sizes:(sizes_json Spec.toy))
              [ false; true ])
          Spec.workloads)
  in
  let file = Filename.concat out_root (Printf.sprintf "smoke-%d.jsonl" (Unix.getpid ())) in
  Out_channel.with_open_bin file (fun oc ->
      List.iter (fun r -> output_string oc (Json.to_string r ^ "\n")) records);
  let rows = Compare.rows bm ~base:(Compare.load_records file) ~next:(Compare.load_records file) in
  Sys.remove file;
  expect "compare covers every (metric, workload)"
    (List.length rows = List.length bm.Compare.workloads * List.length bm.Compare.end_to_end);
  expect "a result compared with itself is unresolved"
    (List.for_all (fun (r : Compare.row) -> r.Compare.verdict = "unresolved") rows);
  (* Three runs per side whose throughput falls by half: worse beyond
     the bound; doubling it: better. *)
  let runs rate =
    List.map
      (fun x ->
        Json.obj
          [
            ("workload", Json.str "batch_report");
            ("metrics", Json.obj [ ("items_per_s", Json.obj [ ("value", Json.num (rate *. x)) ]) ]);
          ])
      [ 0.98; 1.; 1.02 ]
  in
  let verdict next =
    match Compare.rows bm ~base:(runs 100.) ~next:(runs next) with
    | [ r ] -> (r.Compare.verdict, r.Compare.regression)
    | _ -> ("missing", false)
  in
  expect "compare flags a halved throughput as a regression" (verdict 50. = ("worse", true));
  expect "compare reads a doubled throughput as better" (verdict 200. = ("better", false));
  match List.rev !problems with
  | [] ->
      print_endline "bench-smoke: ok";
      0
  | ps ->
      List.iter (fun p -> prerr_endline ("bench-smoke: FAILED: " ^ p)) ps;
      1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Obs.Progress.set_override (Some false);
  let code =
    match Array.to_list Sys.argv with
    | _ :: "run" :: args -> run args
    | _ :: "setup" :: args -> setup args
    | _ :: "compare" :: args -> compare args
    | _ :: "smoke" :: args -> smoke args
    | _ -> die "usage: unicert_bench (run|compare|smoke) ...; see bench/harness/README.md"
  in
  exit code
