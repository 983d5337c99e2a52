(* What the benchmark runs: workloads, their sizes, and the metric
   names it reports.  BENCHMARK.json at the repository root describes
   the same set; the smoke check fails when the two disagree. *)

let workloads = [ "batch_report"; "store_replay"; "monitor_live"; "fuzz_campaign" ]

(* Seed 2 is held out: a claim tuned on seed 1 must also hold on it. *)
let default_seed = 1
let default_seconds = 25.

(* Fresh set-ups timed per run of a closed-loop workload; setup_s is
   their median.  The monitor times its own starts, per round. *)
let setups = 5

type sizes = {
  batch_scale : int;  (** certificates per report job *)
  store_scale : int;  (** certificates in the replayed store *)
  fuzz_budget : int;  (** executions per campaign *)
  monitor_ticks : int;  (** back-to-back monitor ingest ticks per round *)
  query_window : float;  (** seconds of open-loop queries per monitor round *)
}

(* Sized for a 2-core host: a report job takes about 0.15 s and a
   campaign half that, so a run of [default_seconds] takes the median of
   150+ requests. *)
let full =
  {
    batch_scale = 4000;
    store_scale = 10_000;
    fuzz_budget = 2048;
    monitor_ticks = 16;
    query_window = 1.5;
  }

let toy =
  {
    batch_scale = 100;
    store_scale = 150;
    fuzz_budget = 64;
    monitor_ticks = 1;
    query_window = 0.25;
  }

(* Each monitor round ingests from [logs] logs, [publish_per_tick]
   entries per log per tick, then serves Poisson queries at
   [query_rate] per second.  Queries run after ingest: sharing the
   daemon with ticks, a query either waits behind one or does not, and
   query latency varied by 27-55% between runs. *)
let logs = 16
let publish_per_tick = 16
let query_rate = 100.

let battery =
  [
    "q crtsh example";
    "q sslmate xn--bcher-kva.com";
    "q entrust xn--bcher-kva.com";
    "q entrust shop.xn--p1ai";
    "ix issuer COMODO CA Limited";
    "ix ulabel b\xc3\xbccher";
    "ix domain example";
    "ix flaw Invalid Encoding";
    "stats";
  ]

(* (name, unit) in report order. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("items_per_s", "1/s");
    ("latency_mean_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  List.concat_map
    (fun r ->
      let r = Spans.role_name r in
      [ (r ^ ".us_per_item", "us"); (r ^ ".words_per_item", "words") ])
    Spans.roles
  @ [
      ("gc.minor_collections_per_kitem", "count");
      ("gc.major_collections_per_kitem", "count");
      ("cpu.utilization", "ratio");
      ("bench.trace_overhead_pct", "%");
      ("obs.trace_overhead_pct", "%");
    ]
