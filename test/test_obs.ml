(* Tests for the Obs telemetry library: counter semantics, histogram
   bucket edges, nested span timing, exporter formats, and the
   OBS_QUIET progress kill-switch. *)

let check = Alcotest.check

(* --- counters --------------------------------------------------------- *)

let test_counter () =
  let c = Obs.Counter.make ~help:"h" () in
  check (Alcotest.float 0.0) "starts at zero" 0.0 (Obs.Counter.value c);
  Obs.Counter.inc c;
  Obs.Counter.inc c;
  Obs.Counter.add c 2.5;
  check (Alcotest.float 1e-9) "inc+add" 4.5 (Obs.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Counter.add: negative increment") (fun () ->
      Obs.Counter.add c (-1.0));
  Obs.Counter.reset c;
  check (Alcotest.float 0.0) "reset" 0.0 (Obs.Counter.value c)

let test_labeled_counter () =
  let f = Obs.Counter.Labeled.make ~label:"k" () in
  let a = Obs.Counter.Labeled.get f "a" in
  let a' = Obs.Counter.Labeled.get f "a" in
  let b = Obs.Counter.Labeled.get f "b" in
  check Alcotest.bool "same label, same child" true (a == a');
  check Alcotest.bool "distinct labels, distinct children" true (not (a == b));
  Obs.Counter.inc a;
  Obs.Counter.inc a;
  Obs.Counter.inc b;
  check (Alcotest.float 0.0) "child a" 2.0 (Obs.Counter.value a);
  check (Alcotest.float 0.0) "child b" 1.0 (Obs.Counter.value b);
  check
    (Alcotest.list Alcotest.string)
    "children sorted by label" [ "a"; "b" ]
    (List.map fst (Obs.Counter.Labeled.children f))

(* --- histograms ------------------------------------------------------- *)

let test_histogram_edges () =
  let h = Obs.Histogram.make ~buckets:[| 1.0; 10.0; 100.0 |] () in
  (* Values exactly on an edge belong to that edge's bucket (le). *)
  Obs.Histogram.observe h 1.0;
  Obs.Histogram.observe h 10.0;
  Obs.Histogram.observe h 100.0;
  Obs.Histogram.observe h 100.000001;
  Obs.Histogram.observe h 0.5;
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.0) Alcotest.int))
    "cumulative le counts"
    [ (1.0, 2); (10.0, 3); (100.0, 4) ]
    (Obs.Histogram.cumulative h);
  check Alcotest.int "total count includes overflow" 5 (Obs.Histogram.count h);
  check (Alcotest.float 1e-6) "sum" 211.500001 (Obs.Histogram.sum h)

let test_log_buckets () =
  let b = Obs.Histogram.log_buckets ~base:1e-6 ~factor:4.0 ~count:5 in
  check Alcotest.int "count" 5 (Array.length b);
  check (Alcotest.float 1e-12) "base" 1e-6 b.(0);
  check (Alcotest.float 1e-9) "last" 2.56e-4 b.(4);
  Array.iteri
    (fun i v -> if i > 0 then check Alcotest.bool "increasing" true (v > b.(i - 1)))
    b;
  Alcotest.check_raises "bad factor rejected"
    (Invalid_argument "Obs.Histogram.log_buckets") (fun () ->
      ignore (Obs.Histogram.log_buckets ~base:1.0 ~factor:1.0 ~count:3))

(* --- spans ------------------------------------------------------------ *)

let test_span_nesting () =
  let registry = Obs.Registry.create () in
  check (Alcotest.list Alcotest.string) "no active span" []
    (Obs.Span.current ());
  Obs.Span.with_ ~registry "outer" (fun () ->
      check
        (Alcotest.list Alcotest.string)
        "outer active" [ "outer" ] (Obs.Span.current ());
      Obs.Span.with_ ~registry "inner" (fun () ->
          check
            (Alcotest.list Alcotest.string)
            "stack innermost first" [ "inner"; "outer" ] (Obs.Span.current ());
          Unix.sleepf 0.002));
  check (Alcotest.list Alcotest.string) "stack unwound" [] (Obs.Span.current ());
  let outer = Obs.Span.sum ~registry "outer"
  and inner = Obs.Span.sum ~registry "inner" in
  check Alcotest.bool "inner recorded >= slept time" true (inner >= 0.002);
  (* Nested timing monotonicity: the enclosing span can never be
     shorter than what it encloses. *)
  check Alcotest.bool "outer >= inner" true (outer >= inner);
  check Alcotest.int "outer count" 1 (Obs.Span.count ~registry "outer");
  check Alcotest.int "inner count" 1 (Obs.Span.count ~registry "inner");
  (* The duration is recorded even when the body raises. *)
  (try Obs.Span.with_ ~registry "raising" (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "raised span still recorded" 1
    (Obs.Span.count ~registry "raising");
  check (Alcotest.list Alcotest.string) "stack unwound after raise" []
    (Obs.Span.current ())

(* --- exporters -------------------------------------------------------- *)

let sample_registry () =
  let registry = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry ~help:"plain" "t_certs_total" in
  Obs.Counter.add c 42.0;
  let lc =
    Obs.Registry.labeled_counter ~registry ~label:"lint" "t_hits_total"
  in
  Obs.Counter.inc (Obs.Counter.Labeled.get lc "e_weird\"name");
  let g = Obs.Registry.gauge ~registry "t_scale" in
  Obs.Gauge.set g 7.5;
  let h =
    Obs.Registry.histogram ~registry ~buckets:[| 0.1; 1.0 |] "t_seconds"
  in
  Obs.Histogram.observe h 0.05;
  Obs.Histogram.observe h 2.0;
  registry

let contains hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_export_prometheus () =
  let text = Obs.Export.to_prometheus (sample_registry ()) in
  List.iter
    (fun line -> check Alcotest.bool line true (contains text line))
    [
      "# TYPE t_certs_total counter";
      "t_certs_total 42";
      "t_hits_total{lint=\"e_weird\\\"name\"} 1";
      "# TYPE t_scale gauge";
      "t_scale 7.5";
      "# TYPE t_seconds histogram";
      "t_seconds_bucket{le=\"0.1\"} 1";
      "t_seconds_bucket{le=\"1\"} 1";
      "t_seconds_bucket{le=\"+Inf\"} 2";
      "t_seconds_sum 2.05";
      "t_seconds_count 2";
    ]

let test_export_json () =
  let json = Obs.Export.to_json (sample_registry ()) in
  List.iter
    (fun frag -> check Alcotest.bool frag true (contains json frag))
    [
      "\"name\": \"t_certs_total\"";
      "\"value\": 42";
      "\"value_of_label\": \"e_weird\\\"name\"";
      "\"name\": \"t_scale\"";
      "\"value\": 7.5";
      "{\"le\": \"+Inf\", \"count\": 2}";
      "\"sum\": 2.05";
    ]

(* Both formats must expose the same numbers: extract every metric value
   mentioned in the JSON dump and require the Prometheus text to carry
   an identical sample line. *)
let test_export_round_trip () =
  let registry = sample_registry () in
  let prom = Obs.Export.to_prometheus registry in
  List.iter
    (fun (name, metric) ->
      match metric with
      | Obs.Registry.Counter c ->
          check Alcotest.bool (name ^ " value in both") true
            (contains prom
               (Printf.sprintf "%s %g" name (Obs.Counter.value c)))
      | Obs.Registry.Gauge g ->
          check Alcotest.bool (name ^ " value in both") true
            (contains prom (Printf.sprintf "%s %g" name (Obs.Gauge.value g)))
      | Obs.Registry.Histogram h ->
          check Alcotest.bool (name ^ " count in both") true
            (contains prom
               (Printf.sprintf "%s_count %d" name (Obs.Histogram.count h)))
      | _ -> ())
    (Obs.Registry.metrics registry)

let test_write_file_by_extension () =
  let registry = sample_registry () in
  let prom_path = Filename.temp_file "obs" ".prom" in
  let json_path = Filename.temp_file "obs" ".json" in
  Obs.Export.write_file registry prom_path;
  Obs.Export.write_file registry json_path;
  let slurp p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  check Alcotest.bool "prom file is exposition text" true
    (contains (slurp prom_path) "# TYPE t_certs_total counter");
  check Alcotest.bool "json file is json" true
    (contains (slurp json_path) "{\"counters\":");
  Sys.remove prom_path;
  Sys.remove json_path

(* --- registry --------------------------------------------------------- *)

let test_registry_idempotent () =
  let registry = Obs.Registry.create () in
  let a = Obs.Registry.counter ~registry "same_total" in
  let b = Obs.Registry.counter ~registry "same_total" in
  check Alcotest.bool "same handle back" true (a == b);
  check Alcotest.bool "kind clash raises" true
    (try
       ignore (Obs.Registry.gauge ~registry "same_total");
       false
     with Invalid_argument _ -> true)

(* --- progress --------------------------------------------------------- *)

let test_progress_quiet () =
  let devnull = open_out Filename.null in
  Fun.protect
    ~finally:(fun () ->
      close_out devnull;
      Unix.putenv "OBS_QUIET" "";
      Obs.Progress.set_override None)
    (fun () ->
      (* OBS_QUIET suppresses output even where a TTY would allow it. *)
      Unix.putenv "OBS_QUIET" "1";
      Obs.Progress.set_override None;
      let p = Obs.Progress.create ~total:10 ~out:devnull ~label:"gen" () in
      check Alcotest.bool "quiet -> inactive" false (Obs.Progress.active p);
      Obs.Progress.tick p;
      check Alcotest.int "ticks still counted" 1 (Obs.Progress.count p);
      (* --progress (override on) beats OBS_QUIET ... *)
      Obs.Progress.set_override (Some true);
      let p = Obs.Progress.create ~total:10 ~out:devnull ~label:"gen" () in
      check Alcotest.bool "forced on" true (Obs.Progress.active p);
      Obs.Progress.tick ~by:10 p;
      Obs.Progress.finish p;
      check Alcotest.int "by-n tick" 10 (Obs.Progress.count p);
      (* ... and --no-progress wins regardless of environment. *)
      Unix.putenv "OBS_QUIET" "";
      Obs.Progress.set_override (Some false);
      let p = Obs.Progress.create ~out:devnull ~label:"gen" () in
      check Alcotest.bool "forced off" false (Obs.Progress.active p))

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "labeled counter" `Quick test_labeled_counter;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
    Alcotest.test_case "log-scale buckets" `Quick test_log_buckets;
    Alcotest.test_case "nested spans" `Quick test_span_nesting;
    Alcotest.test_case "prometheus exporter" `Quick test_export_prometheus;
    Alcotest.test_case "json exporter" `Quick test_export_json;
    Alcotest.test_case "exporters agree" `Quick test_export_round_trip;
    Alcotest.test_case "write_file by extension" `Quick test_write_file_by_extension;
    Alcotest.test_case "registry idempotency" `Quick test_registry_idempotent;
    Alcotest.test_case "OBS_QUIET suppresses progress" `Quick test_progress_quiet;
  ]
