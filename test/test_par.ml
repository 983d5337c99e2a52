(* Tests for the multicore sharded pipeline: shard arithmetic,
   byte-identical reports across --jobs values, quarantine shard
   merging, per-(seed,index) generation purity, per-shard checkpoint
   resume, and domain-safety stress for the telemetry primitives the
   worker domains share. *)

let check = Alcotest.check

let tmp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let render t = Format.asprintf "%a" Unicert.Report.all t

(* Everything the reports are built from, minus wall-clock telemetry
   and the resume bookkeeping (resumed_at / checkpoints_saved legitimately
   differ between a fresh run and a resumed one). *)
let fingerprint (t : Unicert.Pipeline.t) =
  let f = t.Unicert.Pipeline.faults in
  Format.asprintf "%d/%d/%d nc=%d,%d,%d tr=%d,%d,%d rec=%d,%d enc=%d,%d,%d,%d,%d faults=%d,%d lints=[%s] issuers=[%s]"
    t.Unicert.Pipeline.total t.Unicert.Pipeline.idncerts
    t.Unicert.Pipeline.trusted t.Unicert.Pipeline.nc_total
    t.Unicert.Pipeline.nc_ignoring_dates t.Unicert.Pipeline.nc_old_lints_only
    t.Unicert.Pipeline.nc_trusted t.Unicert.Pipeline.nc_limited
    t.Unicert.Pipeline.nc_untrusted t.Unicert.Pipeline.nc_recent
    t.Unicert.Pipeline.nc_alive t.Unicert.Pipeline.encoding_error_certs
    t.Unicert.Pipeline.encoding_error_verified
    t.Unicert.Pipeline.encoding_error_subject
    t.Unicert.Pipeline.encoding_error_san
    t.Unicert.Pipeline.encoding_error_policies
    f.Unicert.Pipeline.fault_errors f.Unicert.Pipeline.quarantined
    (String.concat ";"
       (List.map
          (fun (name, n) -> Printf.sprintf "%s=%d" name n)
          (Unicert.Pipeline.top_lints t)))
    (String.concat ";"
       (List.map
          (fun (org, (s : Unicert.Pipeline.issuer_stats)) ->
            Printf.sprintf "%s=%d/%d" org s.Unicert.Pipeline.total
              s.Unicert.Pipeline.nc_count)
          (Unicert.Pipeline.top_issuers_by_nc t)))

(* --- shard arithmetic ------------------------------------------------- *)

let test_shards () =
  check Alcotest.(list (pair int int)) "empty for n=0" [] (Par.shards ~jobs:4 0);
  check Alcotest.(list (pair int int)) "single shard" [ (0, 7) ]
    (Par.shards ~jobs:1 7);
  check Alcotest.(list (pair int int)) "more jobs than work" [ (0, 1); (1, 2); (2, 3) ]
    (Par.shards ~jobs:8 3);
  List.iter
    (fun (jobs, n) ->
      let ranges = Par.shards ~jobs n in
      let covered = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges in
      check Alcotest.int
        (Printf.sprintf "jobs=%d n=%d covers the range" jobs n)
        n covered;
      let rec contiguous prev = function
        | [] -> true
        | (lo, hi) :: rest -> lo = prev && hi > lo && contiguous hi rest
      in
      check Alcotest.bool
        (Printf.sprintf "jobs=%d n=%d contiguous ascending" jobs n)
        true
        (contiguous 0 ranges);
      let sizes = List.map (fun (lo, hi) -> hi - lo) ranges in
      let mx = List.fold_left max 0 sizes
      and mn = List.fold_left min max_int sizes in
      check Alcotest.bool
        (Printf.sprintf "jobs=%d n=%d balanced" jobs n)
        true
        (mx - mn <= 1))
    [ (2, 10); (3, 10); (4, 7); (7, 100); (5, 5); (16, 61) ]

(* --- generation purity ------------------------------------------------ *)

(* A sub-range of the corpus must produce the same bytes the full pass
   produces at those indices — the property every shard and every
   checkpoint resume leans on. *)
let test_range_purity () =
  let scale = 120 and seed = 11 in
  let ders ~start ~stop =
    let acc = ref [] in
    Ctlog.Dataset.iter_deliveries ~scale ~start ~stop ~seed (fun index d ->
        match d with
        | Ctlog.Dataset.Entry e ->
            acc := (index, e.Ctlog.Dataset.cert.X509.Certificate.der) :: !acc
        | Ctlog.Dataset.Corrupt _ -> assert false);
    List.rev !acc
  in
  let full = ders ~start:0 ~stop:scale in
  let split = ders ~start:0 ~stop:47 @ ders ~start:47 ~stop:scale in
  check Alcotest.int "piecewise pass covers the range" (List.length full)
    (List.length split);
  List.iter2
    (fun (i, a) (j, b) ->
      check Alcotest.int "index" i j;
      check Alcotest.bool (Printf.sprintf "DER at %d identical" i) true (a = b))
    full split;
  (* generate_at is the same stream again. *)
  List.iter
    (fun (i, der) ->
      let e = Ctlog.Dataset.generate_at ~seed i in
      check Alcotest.bool
        (Printf.sprintf "generate_at %d matches the stream" i)
        true
        (e.Ctlog.Dataset.cert.X509.Certificate.der = der))
    [ List.nth full 0; List.nth full 59; List.nth full (scale - 1) ]

(* --- report determinism across --jobs --------------------------------- *)

let jobs_list = [ 1; 2; 4; 7 ]

let test_report_determinism () =
  let scale = 240 and seed = 5 in
  let baseline = render (Unicert.Pipeline.run ~scale ~seed ~jobs:1 ()) in
  List.iter
    (fun jobs ->
      let got = render (Unicert.Pipeline.run ~scale ~seed ~jobs ()) in
      check Alcotest.bool
        (Printf.sprintf "report bytes identical at jobs=%d" jobs)
        true (got = baseline))
    (List.tl jobs_list)

let test_corrupt_determinism () =
  let scale = 300 and seed = 8 and rate = 0.05 in
  let plan = Faults.Mutator.plan ~seed ~rate () in
  let run jobs =
    let dir = tmp_dir (Printf.sprintf "unicert-par-q%d" jobs) in
    rm_rf dir;
    let policy =
      { Faults.Policy.default with Faults.Policy.quarantine_dir = Some dir }
    in
    let t = Unicert.Pipeline.run ~scale ~seed ~policy ~mutator:plan ~jobs () in
    let sidecar =
      Filename.concat dir (Printf.sprintf "quarantine-%d.jsonl" seed)
    in
    let q = read_file sidecar in
    (* The shard sidecars must have been folded in and deleted. *)
    Array.iter
      (fun f ->
        check Alcotest.bool
          (Printf.sprintf "no leftover shard sidecar %s at jobs=%d" f jobs)
          false
          (String.length f > 6 && String.sub f 0 6 = "quaran"
          && Filename.check_suffix f ".jsonl"
          && f <> Printf.sprintf "quarantine-%d.jsonl" seed))
      (Sys.readdir dir);
    rm_rf dir;
    (render t, q)
  in
  let base_report, base_q = run 1 in
  check Alcotest.bool "the mutator actually hit something" true
    (String.length base_q > 0);
  List.iter
    (fun jobs ->
      let report, q = run jobs in
      check Alcotest.bool
        (Printf.sprintf "corrupted report identical at jobs=%d" jobs)
        true (report = base_report);
      check Alcotest.bool
        (Printf.sprintf "quarantine bytes identical at jobs=%d" jobs)
        true (q = base_q))
    (List.tl jobs_list)

(* --- per-shard checkpoints -------------------------------------------- *)

let test_shard_checkpoint_resume () =
  let scale = 300 and seed = 9 in
  let file = Filename.temp_file "unicert-par-ckpt" ".bin" in
  let policy =
    { Faults.Policy.default with
      Faults.Policy.checkpoint_file = Some file;
      checkpoint_every = 50;
    }
  in
  let fresh = Unicert.Pipeline.run ~scale ~seed ~policy ~jobs:3 () in
  for k = 0 to 2 do
    check Alcotest.bool
      (Printf.sprintf "shard %d cursor exists" k)
      true
      (Sys.file_exists (Faults.Checkpoint.shard_file file k))
  done;
  (* Same jobs: every shard resumes at its end and replays nothing. *)
  let resumed = Unicert.Pipeline.run ~scale ~seed ~policy ~jobs:3 ~resume:true () in
  check Alcotest.bool "resumed aggregate matches" true
    (fingerprint resumed = fingerprint fresh);
  check Alcotest.bool "resume was detected" true
    (resumed.Unicert.Pipeline.faults.Unicert.Pipeline.resumed_at > 0);
  (* Different jobs: shard ranges move.  The new shard 1 ([150,300))
     finds a cursor saved for [100,200) and must reject it (its lo
     moved); the new shard 0 ([0,150)) finds the old [0,100) cursor,
     whose prefix still lines up, and may reuse it — either way the
     aggregate must come out identical to a fresh run. *)
  let rejobbed = Unicert.Pipeline.run ~scale ~seed ~policy ~jobs:2 ~resume:true () in
  check Alcotest.bool "jobs change still yields a correct run" true
    (fingerprint rejobbed = fingerprint fresh);
  check Alcotest.int "only the prefix-aligned cursor was reused" 100
    rejobbed.Unicert.Pipeline.faults.Unicert.Pipeline.resumed_at;
  List.iter
    (fun k ->
      let f = Faults.Checkpoint.shard_file file k in
      if Sys.file_exists f then Sys.remove f)
    [ 0; 1; 2 ];
  Sys.remove file

(* The --max-errors budget spans an abort and its resume: faults already
   counted in the resumed cursors count toward it, at every jobs
   value. *)
let test_resume_error_budget () =
  let scale = 300 and seed = 5 in
  let plan = Faults.Mutator.plan ~seed ~rate:0.1 () in
  List.iter
    (fun jobs ->
      let file = Filename.temp_file "unicert-par-budget" ".bin" in
      let policy =
        { Faults.Policy.default with
          Faults.Policy.checkpoint_file = Some file;
          checkpoint_every = 10;
          max_errors = Some 20;
        }
      in
      let run resume =
        Unicert.Pipeline.run ~scale ~seed ~policy ~mutator:plan ~jobs ~resume ()
      in
      let aborted (t : Unicert.Pipeline.t) =
        t.Unicert.Pipeline.faults.Unicert.Pipeline.aborted <> None
      in
      check Alcotest.bool
        (Printf.sprintf "first run aborts at jobs=%d" jobs)
        true (aborted (run false));
      check Alcotest.bool
        (Printf.sprintf "resume keeps counting the budget at jobs=%d" jobs)
        true (aborted (run true));
      List.iter
        (fun k ->
          let f = Faults.Checkpoint.shard_file file k in
          if Sys.file_exists f then Sys.remove f)
        (List.init jobs Fun.id);
      Sys.remove file)
    [ 1; 3 ]

(* --- telemetry under domains ------------------------------------------ *)

let domains = 4
let per_domain = 10_000

let test_obs_stress () =
  let registry = Obs.Registry.create () in
  let tasks =
    List.init domains (fun d () ->
        (* Resolving through the registry from every domain exercises the
           guarded find-or-create: all four must land on one handle. *)
        let c = Obs.Registry.counter ~registry "par_test_total" in
        let fam =
          Obs.Registry.labeled_counter ~registry ~label:"shard" "par_test_labeled"
        in
        let h = Obs.Registry.histogram ~registry "par_test_seconds" in
        for i = 1 to per_domain do
          Obs.Counter.inc c;
          Obs.Counter.inc (Obs.Counter.Labeled.get fam (string_of_int (i mod 4)));
          (* Powers of two keep the float sums exact under any
             interleaving, so the check can demand equality. *)
          Obs.Histogram.observe h 0.25
        done;
        ignore d)
  in
  ignore (Par.run ~jobs:domains tasks);
  let c = Obs.Registry.counter ~registry "par_test_total" in
  check (Alcotest.float 0.0) "counter is exact"
    (float_of_int (domains * per_domain))
    (Obs.Counter.value c);
  let fam =
    Obs.Registry.labeled_counter ~registry ~label:"shard" "par_test_labeled"
  in
  check Alcotest.int "labeled family has 4 children" 4
    (List.length (Obs.Counter.Labeled.children fam));
  List.iter
    (fun (label, child) ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "child %s is exact" label)
        (float_of_int (domains * per_domain / 4))
        (Obs.Counter.value child))
    (Obs.Counter.Labeled.children fam);
  let h = Obs.Registry.histogram ~registry "par_test_seconds" in
  check Alcotest.int "histogram count is exact" (domains * per_domain)
    (Obs.Histogram.count h);
  check (Alcotest.float 0.0) "histogram sum is exact"
    (0.25 *. float_of_int (domains * per_domain))
    (Obs.Histogram.sum h)

let test_span_isolation () =
  let registry = Obs.Registry.create () in
  let results =
    Par.map_tasks ~jobs:domains
      (List.init domains (fun d () ->
           Obs.Span.with_ ~registry "outer" (fun () ->
               let at_outer = Obs.Span.current () in
               Obs.Span.with_ ~registry "inner" (fun () ->
                   (d, at_outer, Obs.Span.current ())))))
  in
  List.iter
    (fun (d, at_outer, at_inner) ->
      check Alcotest.(list string)
        (Printf.sprintf "domain %d sees its own outer stack" d)
        [ "outer" ] at_outer;
      check Alcotest.(list string)
        (Printf.sprintf "domain %d sees its own nested stack" d)
        [ "inner"; "outer" ] at_inner)
    results;
  check Alcotest.(list string) "main-domain stack untouched" []
    (Obs.Span.current ());
  check Alcotest.int "outer spans all recorded" domains
    (Obs.Span.count ~registry "outer");
  check Alcotest.int "inner spans all recorded" domains
    (Obs.Span.count ~registry "inner")

(* --- watchdog on worker domains --------------------------------------- *)

let busy_for seconds =
  let t0 = Unix.gettimeofday () in
  let x = ref 0 in
  while Unix.gettimeofday () -. t0 < seconds do
    (* Allocate so the loop matches the guarded workloads. *)
    x := !x + List.length [ 1; 2; 3 ]
  done;
  !x

let test_worker_watchdog () =
  let guarded seconds work () =
    try
      ignore (Faults.Watchdog.with_timeout ~stage:"par" ~seconds work);
      "completed"
    with Faults.Watchdog.Timed_out { stage; _ } -> "timed_out:" ^ stage
  in
  (* Two tasks so both land on spawned (non-main) domains, where the
     alarm is unavailable and the deadline path must catch the overrun. *)
  let results =
    Par.map_tasks ~jobs:2
      [
        guarded 0.01 (fun () -> busy_for 0.05);
        guarded 5.0 (fun () -> busy_for 0.001);
      ]
  in
  check Alcotest.(list string) "worker overrun detected post-hoc"
    [ "timed_out:par"; "completed" ] results

(* Regression: map_tasks once spawned one domain per task no matter
   what [jobs] said — 32 tasks meant 32 live domains.  Count the tasks
   in flight at once and hold the pool to its budget. *)
let test_map_tasks_cap () =
  let jobs = 2 and tasks = 32 in
  let in_flight = Atomic.make 0 in
  let peak = Atomic.make 0 in
  let rec bump_peak n =
    let p = Atomic.get peak in
    if n > p && not (Atomic.compare_and_set peak p n) then bump_peak n
  in
  let task i () =
    let n = 1 + Atomic.fetch_and_add in_flight 1 in
    bump_peak n;
    ignore (busy_for 0.002);
    ignore (Atomic.fetch_and_add in_flight (-1));
    i
  in
  let results = Par.map_tasks ~jobs (List.init tasks task) in
  check Alcotest.(list int) "results keep input order" (List.init tasks Fun.id)
    results;
  if Atomic.get peak > jobs then
    Alcotest.failf "%d tasks ran concurrently on a %d-domain budget"
      (Atomic.get peak) jobs;
  check Alcotest.bool "the pool actually ran work in parallel" true
    (Atomic.get peak >= 1)

let suite =
  [
    Alcotest.test_case "shard arithmetic" `Quick test_shards;
    Alcotest.test_case "per-index generation purity" `Quick test_range_purity;
    Alcotest.test_case "report bytes across jobs" `Slow test_report_determinism;
    Alcotest.test_case "corrupt run + quarantine across jobs" `Slow
      test_corrupt_determinism;
    Alcotest.test_case "per-shard checkpoint resume" `Slow
      test_shard_checkpoint_resume;
    Alcotest.test_case "telemetry exact under 4 domains" `Quick test_obs_stress;
    Alcotest.test_case "span stacks are domain-local" `Quick test_span_isolation;
    Alcotest.test_case "watchdog deadline on worker domains" `Quick
      test_worker_watchdog;
    Alcotest.test_case "map_tasks honours the jobs budget" `Quick
      test_map_tasks_cap;
    Alcotest.test_case "resume keeps the error budget" `Slow
      test_resume_error_budget;
  ]
