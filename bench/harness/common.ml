(* What every workload shares: the run context, the timed closed loop,
   fresh-process set-ups, the end-to-end metric set, and the traced-run
   procedure that yields the per-layer metrics. *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  sizes : Spec.sizes;
  work : string;  (** scratch directory of this run, removed at the end *)
  exe : string;  (** this program, re-run for set-ups *)
  daemon : string;  (** the unicert_monitord executable *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Call [f] back to back until [ctx.seconds] have passed (at least
   once); [f] returns the seconds its request took. *)
let loop ctx f =
  let stop = now () +. ctx.seconds in
  let busy = ref 0. in
  let first = ref true in
  while !first || now () < stop do
    first := false;
    busy := !busy +. f ()
  done;
  !busy

(* [Spec.setups] fresh processes each running [setup] for this
   workload; returns (seconds from spawn to exit, stdout) per process. *)
let setup_runs ctx out ~args =
  List.init Spec.setups (fun i ->
      let status, stdout, secs =
        Proc.capture ctx.exe
          ([ "setup"; "--workload"; ctx.workload; "--seed"; string_of_int ctx.seed ] @ args i)
      in
      Outcome.check out
        (Printf.sprintf "set-up process %d exits 0" i)
        (status = Unix.WEXITED 0);
      (secs, String.trim stdout))

(* The end-to-end metrics every workload reports.  [items] over [busy]
   seconds is the throughput; [rates] are per-request throughputs for
   its spread band; [latencies] are request latencies in seconds.
   Latency is their mean unless the workload gives its own [latency_ms]:
   this host alternates between fast and slow phases, and a median
   flips between them while a mean moves with the share of time spent
   in each. *)
let e2e ?latency_ms out ~setup ~items ~busy ~rates ~latencies ~rss_mb =
  let ms = Stats.sorted (List.map (fun s -> s *. 1000.) latencies) in
  let rates = Stats.sorted rates in
  Outcome.add out (Outcome.of_samples ~name:"setup_s" ~unit_:"s" setup);
  Outcome.add out
    {
      Outcome.name = "items_per_s";
      unit_ = "1/s";
      value = items /. busy;
      n = Array.length rates;
      q1 = Stats.q1 rates;
      q3 = Stats.q3 rates;
    };
  Outcome.add out
    {
      Outcome.name = "latency_mean_ms";
      unit_ = "ms";
      value =
        (match latency_ms with
        | Some v -> v
        | None -> Array.fold_left ( +. ) 0. ms /. float_of_int (Array.length ms));
      n = Array.length ms;
      q1 = Stats.q1 ms;
      q3 = Stats.q3 ms;
    };
  Outcome.add out
    { Outcome.name = "peak_rss_mb"; unit_ = "MB"; value = rss_mb; n = 1; q1 = rss_mb; q3 = rss_mb }

let gc_collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The traced run.  Each round makes three requests:
   - [replica ()] then [real ()] with the span recorder on;
   - the same with the recorder off, timing [real] alone as well — the
     plain real request also gives the GC and CPU figures;
   - [real ()] once more under the program's own Obs.Trace.
   [items] is the work one round's recorder-on request does, the
   divisor of the per-item layer metrics.  Spans go to [trace_file]. *)
let trace_rounds ctx out ~items ~replica ~real ~trace_file =
  Spans.reset ();
  let traced = ref [] and plain = ref [] and plain_real = ref [] and obs = ref [] in
  let minor = ref 0 and major = ref 0 and cpu = ref 0. and wall = ref 0. in
  let rounds = ref 0 in
  ignore
    (loop ctx (fun () ->
         incr rounds;
         Spans.set_enabled true;
         let a, () =
           time (fun () ->
               Spans.request !rounds (fun () ->
                   replica ();
                   real ()))
         in
         Spans.set_enabled false;
         let b_rep, () = time replica in
         let mi0, ma0 = gc_collections () and c0 = cpu_seconds () in
         let b_real, () = time real in
         let mi1, ma1 = gc_collections () and c1 = cpu_seconds () in
         minor := !minor + (mi1 - mi0);
         major := !major + (ma1 - ma0);
         cpu := !cpu +. (c1 -. c0);
         wall := !wall +. b_real;
         Obs.Trace.enable ~ring:65536 ();
         let d, () = Fun.protect ~finally:Obs.Trace.disable (fun () -> time real) in
         traced := a :: !traced;
         plain := (b_rep +. b_real) :: !plain;
         plain_real := b_real :: !plain_real;
         obs := d :: !obs;
         a +. b_rep +. b_real +. d));
  let layers = Spans.layers () in
  let n_items = float_of_int (items * !rounds) in
  List.iter
    (fun r ->
      let s, w = Spans.role_totals layers r in
      let name = Spans.role_name r in
      Outcome.add out
        { Outcome.name = name ^ ".us_per_item"; unit_ = "us"; value = s *. 1e6 /. n_items;
          n = !rounds; q1 = nan; q3 = nan };
      Outcome.add out
        { Outcome.name = name ^ ".words_per_item"; unit_ = "words"; value = w /. n_items;
          n = !rounds; q1 = nan; q3 = nan })
    Spans.roles;
  let single name unit_ value =
    Outcome.add out { Outcome.name; unit_; value; n = !rounds; q1 = nan; q3 = nan }
  in
  single "gc.minor_collections_per_kitem" "count" (float_of_int !minor *. 1000. /. n_items);
  single "gc.major_collections_per_kitem" "count" (float_of_int !major *. 1000. /. n_items);
  single "cpu.utilization" "ratio" (!cpu /. !wall);
  let med l = Stats.median (Stats.sorted l) in
  single "bench.trace_overhead_pct" "%" (100. *. ((med !traced /. med !plain) -. 1.));
  single "obs.trace_overhead_pct" "%" (100. *. ((med !obs /. med !plain_real) -. 1.));
  let kept = Spans.write_jsonl trace_file in
  Outcome.detail out "trace_file" (Json.str trace_file);
  Outcome.detail out "spans_written" (Json.int kept);
  Outcome.detail out "layers"
    (Json.obj
       (List.map
          (fun (name, (l : Spans.layer)) ->
            ( name,
              Json.obj
                [
                  ( "role",
                    match l.Spans.l_role with
                    | Some r -> Json.str (Spans.role_name r)
                    | None -> Obs.Jsonv.Null );
                  ("calls", Json.int l.Spans.calls);
                  ("self_us_per_call", Json.num (l.Spans.self_s *. 1e6 /. float_of_int l.Spans.calls));
                  ("total_us_per_call", Json.num (l.Spans.total_s *. 1e6 /. float_of_int l.Spans.calls));
                  ("self_words_per_call", Json.num (l.Spans.self_w /. float_of_int l.Spans.calls));
                  ("self_us_per_item", Json.num (l.Spans.self_s *. 1e6 /. n_items));
                ] ))
          layers))
