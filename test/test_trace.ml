(* Tests for Obs.Trace / Obs.Profile: exporter round-trips through the
   in-repo JSON parser, ring eviction keeps B/E pairing balanced,
   GC-attribution deltas are non-negative, the slow-cert log keeps the
   worst K, and the trace *structure* of a pipeline run is identical
   across --jobs values. *)

let check = Alcotest.check

(* Every test owns the global trace state: enable what it needs, and
   always disable on the way out. *)
let with_trace ?ring ?sample f =
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      Obs.Trace.enable ?ring ?sample ();
      f ())

(* Walk events in order and require every track's B/E sequence to be
   balanced: no E without an open B, nothing left open at the end. *)
let assert_balanced events =
  let stacks = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add stacks tid r;
        r
  in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.Obs.Trace.ph with
      | Obs.Trace.Begin ->
          let st = stack e.Obs.Trace.tid in
          st := e.Obs.Trace.name :: !st
      | Obs.Trace.End -> (
          let st = stack e.Obs.Trace.tid in
          match !st with
          | _ :: rest -> st := rest
          | [] -> Alcotest.failf "E %S without an open B" e.Obs.Trace.name)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _ st ->
      match !st with
      | [] -> ()
      | name :: _ -> Alcotest.failf "span %S left open" name)
    stacks

(* --- exporters -------------------------------------------------------- *)

let test_chrome_round_trip () =
  with_trace ~sample:1 (fun () ->
      Obs.Trace.span ~cat:"stage"
        ~args:[ ("log", Obs.Trace.Str "weird\"log\n"); ("page", Obs.Trace.Int 3) ]
        "outer"
        (fun () -> Obs.Trace.instant ~cat:"net" "backoff");
      let events = Obs.Trace.snapshot () in
      check Alcotest.int "event count" 3 (List.length events);
      let doc =
        match Obs.Jsonv.parse (Obs.Trace.to_chrome events) with
        | Ok v -> v
        | Error msg -> Alcotest.failf "chrome export is not JSON: %s" msg
      in
      let arr =
        match Obs.Jsonv.member "traceEvents" doc with
        | Some (Obs.Jsonv.List l) -> l
        | _ -> Alcotest.fail "no traceEvents array"
      in
      check Alcotest.int "array length" 3 (List.length arr);
      let first = List.hd arr in
      check
        (Alcotest.option Alcotest.string)
        "name survives" (Some "outer")
        (match Obs.Jsonv.member "name" first with
        | Some (Obs.Jsonv.Str s) -> Some s
        | _ -> None);
      check
        (Alcotest.option Alcotest.string)
        "escaped arg survives" (Some "weird\"log\n")
        (Option.bind
           (Obs.Jsonv.member "args" first)
           (fun args ->
             match Obs.Jsonv.member "log" args with
             | Some (Obs.Jsonv.Str s) -> Some s
             | _ -> None));
      (* JSONL: every line is itself a JSON object with the keys the
         Chrome importer needs. *)
      let lines =
        String.split_on_char '\n' (String.trim (Obs.Trace.to_jsonl events))
      in
      check Alcotest.int "jsonl line count" 3 (List.length lines);
      List.iter
        (fun line ->
          match Obs.Jsonv.parse line with
          | Ok obj ->
              List.iter
                (fun k ->
                  if Obs.Jsonv.member k obj = None then
                    Alcotest.failf "jsonl event lacks %S" k)
                [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ]
          | Error msg -> Alcotest.failf "jsonl line is not JSON: %s" msg)
        lines)

(* --- ring eviction ---------------------------------------------------- *)

let test_ring_eviction_balanced () =
  with_trace ~ring:16 ~sample:1 (fun () ->
      (* 40 sequential spans = 80 events through a 16-slot ring: the
         kept window starts mid-stream, typically on an orphan E. *)
      for i = 1 to 40 do
        Obs.Trace.span ~cat:"stage" (Printf.sprintf "s%d" i) (fun () -> ())
      done;
      check Alcotest.bool "evictions happened" true (Obs.Trace.dropped () > 0);
      let events = Obs.Trace.snapshot () in
      check Alcotest.bool "snapshot bounded" true (List.length events <= 16);
      assert_balanced events;
      (* A span still open at snapshot time is closed synthetically. *)
      Obs.Trace.emit_begin ~cat:"stage" "open-span";
      let events = Obs.Trace.snapshot () in
      assert_balanced events;
      check Alcotest.bool "synthetic E is last" true
        (match List.rev events with
        | (last : Obs.Trace.event) :: _ ->
            last.Obs.Trace.ph = Obs.Trace.End
            && last.Obs.Trace.name = "open-span"
        | [] -> false))

(* --- GC attribution --------------------------------------------------- *)

let test_gc_deltas_non_negative () =
  let registry = Obs.Registry.create () in
  Fun.protect ~finally:Obs.Profile.disable (fun () ->
      Obs.Profile.enable ();
      Obs.Span.with_ ~registry "alloc" (fun () ->
          (* Allocate enough to move the minor-word counter. *)
          Sys.opaque_identity (ignore (List.init 10_000 string_of_int))));
  List.iter
    (fun name ->
      match Obs.Registry.find registry name with
      | Some (Obs.Registry.Labeled_counter f) ->
          List.iter
            (fun (label, c) ->
              check Alcotest.bool
                (Printf.sprintf "%s{span=%S} >= 0" name label)
                true
                (Obs.Counter.value c >= 0.))
            (Obs.Counter.Labeled.children f)
      | Some _ -> Alcotest.failf "%s registered as a non-counter" name
      | None -> ())
    [ "unicert_gc_minor_words_total"; "unicert_gc_major_words_total";
      "unicert_gc_minor_collections_total"; "unicert_gc_major_collections_total" ];
  (* The allocation loop must have been attributed somewhere. *)
  match Obs.Registry.find registry "unicert_gc_minor_words_total" with
  | Some (Obs.Registry.Labeled_counter f) ->
      check Alcotest.bool "minor words attributed to the span" true
        (Obs.Counter.value (Obs.Counter.Labeled.get f "alloc") > 0.)
  | _ -> Alcotest.fail "minor-word family missing"

(* --- slow-cert log ---------------------------------------------------- *)

let test_slow_cert_top_k () =
  Fun.protect
    ~finally:(fun () ->
      Obs.Profile.reset_slow ();
      Obs.Profile.set_top_k 16;
      Obs.Profile.disable ())
    (fun () ->
      Obs.Profile.reset_slow ();
      Obs.Profile.set_top_k 3;
      (* Off: notes are dropped. *)
      Obs.Profile.note_slow ~index:99 ~seconds:9.9 ~stage:"lint";
      check Alcotest.int "no entries while disabled" 0
        (List.length (Obs.Profile.slowest ()));
      Obs.Profile.enable ();
      List.iter
        (fun (i, s) -> Obs.Profile.note_slow ~index:i ~seconds:s ~stage:"lint")
        [ (0, 0.3); (1, 0.1); (2, 0.5); (3, 0.2); (4, 0.4) ];
      let top = Obs.Profile.slowest () in
      check
        (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
        "worst 3, slowest first"
        [ (2, 0.5); (4, 0.4); (0, 0.3) ]
        (List.map
           (fun (s : Obs.Profile.slow) ->
             (s.Obs.Profile.index, s.Obs.Profile.seconds))
           top))

(* --- structural determinism across --jobs ----------------------------- *)

(* Canonical shape of one workload event: its category and name plus
   the enclosing span names on the same track, restricted to workload
   spans ("stage"/"lint" categories, minus the "pipeline" wrapper —
   whether stages sit under "pipeline" on the main domain or at top
   level on a worker domain is a scheduling artifact, not workload
   structure; "par"/"net" events are likewise jobs-dependent by
   design). *)
let canonical_shape events =
  let workload (e : Obs.Trace.event) =
    (e.Obs.Trace.cat = "stage" || e.Obs.Trace.cat = "lint")
    && e.Obs.Trace.name <> "pipeline"
  in
  let stacks = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add stacks tid r;
        r
  in
  let shapes = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if workload e then
        match e.Obs.Trace.ph with
        | Obs.Trace.Begin ->
            let st = stack e.Obs.Trace.tid in
            shapes :=
              Printf.sprintf "%s:%s<%s" e.Obs.Trace.cat e.Obs.Trace.name
                (String.concat "," !st)
              :: !shapes;
            st := e.Obs.Trace.name :: !st
        | Obs.Trace.End -> (
            let st = stack e.Obs.Trace.tid in
            match !st with _ :: rest -> st := rest | [] -> ())
        | _ -> ())
    events;
  List.sort compare !shapes

let test_jobs_determinism () =
  let shape_at jobs =
    with_trace ~ring:(1 lsl 16) ~sample:1 (fun () ->
        ignore
          (Sys.opaque_identity (Unicert.Pipeline.run ~scale:60 ~seed:5 ~jobs ()));
        let events = Obs.Trace.snapshot () in
        check Alcotest.bool
          (Printf.sprintf "jobs=%d ring not exhausted" jobs)
          true
          (Obs.Trace.dropped () = 0);
        assert_balanced events;
        canonical_shape events)
  in
  let s1 = shape_at 1 in
  check Alcotest.bool "trace is non-trivial" true (List.length s1 > 60);
  List.iter
    (fun jobs ->
      check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "jobs=1 vs jobs=%d" jobs)
        s1 (shape_at jobs))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "chrome + jsonl round-trip" `Quick test_chrome_round_trip;
    Alcotest.test_case "ring eviction stays balanced" `Quick
      test_ring_eviction_balanced;
    Alcotest.test_case "gc deltas non-negative" `Quick
      test_gc_deltas_non_negative;
    Alcotest.test_case "slow-cert top-k" `Quick test_slow_cert_top_k;
    Alcotest.test_case "trace structure deterministic across jobs" `Quick
      test_jobs_determinism;
  ]
