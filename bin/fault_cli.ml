(* Shared fault-layer flags for the three binaries: corpus corruption,
   error-budget policy, quarantine, checkpointing and fault injection.
   Evaluating the term arms the injection harness as a side effect, so
   a binary only has to thread [policy]/[mutator] into the pipeline. *)

open Cmdliner

type t = {
  policy : Faults.Policy.t;
  corrupt_rate : float;
  corrupt_seed : int option;
  corrupt_kinds : Faults.Mutator.kind list option;
  drop : bool;
  resume : bool;
  jobs : int;
  fetch : Ctlog.Fetch.cfg option;
      (* Some cfg when --source fetch: the corpus comes from simulated
         CT logs over the fault-injected transport *)
  store : string option;
      (* --store DIR: land the run in the crash-safe on-disk store *)
}

(* --- the exit funnel ---------------------------------------------------

   Every nonzero path of every binary must still flush metrics and
   traces, and a run that earns several codes must exit with the most
   diagnostic one (Faults.Exitcode: 2 > 3 > 4 > 1 > 0).  Binaries
   take their --metrics target from the [metrics] term below and route
   every exit through [exit_via]; [guard] catches the two "your inputs are unusable"
   exceptions of the store/resume stack and funnels them as code 2. *)

let metrics_target : string option ref = ref None
let profile_target = ref false

(* The telemetry flags every binary shares.  Evaluating [metrics]
   registers the --metrics target [flush_outputs] writes; evaluating
   [progress] applies --progress/--no-progress. *)
let metrics =
  Term.(
    const (fun file -> metrics_target := file)
    $ Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write collected telemetry at exit: Prometheus text, or JSON \
                 when FILE ends in .json"))

let progress =
  let force_on =
    Arg.(value & flag & info [ "progress" ]
         ~doc:"Force progress reporting on (default: only on a TTY, and not \
               under OBS_QUIET)")
  in
  let force_off =
    Arg.(value & flag & info [ "no-progress" ] ~doc:"Force progress reporting off")
  in
  Term.(
    const (fun on off ->
        if on then Obs.Progress.set_override (Some true)
        else if off then Obs.Progress.set_override (Some false))
    $ force_on $ force_off)

let flush_outputs () =
  let code = ref 0 in
  (match !metrics_target with
  | None -> ()
  | Some file -> (
      metrics_target := None;
      (* Name the SHA-256 path the timed run hashed with. *)
      Obs.Counter.inc
        (Obs.Counter.Labeled.get
           (Obs.Registry.labeled_counter ~label:"kernel"
              ~help:"SHA-256 compression kernel CPUID selected (1 for the one in use)"
              "unicert_sha256_kernel_info")
           (Ucrypto.Sha256.kernel ()));
      try Obs.Export.write_file Obs.Registry.default file
      with Sys_error msg ->
        Printf.eprintf "error: cannot write metrics: %s\n" msg;
        code := 1));
  (try Obs.Trace.flush ()
   with Sys_error msg ->
     Printf.eprintf "error: cannot write trace: %s\n" msg;
     code := 1);
  if !profile_target then begin
    profile_target := false;
    Obs.Profile.print_top stderr
  end;
  !code

let exit_via code = exit (Faults.Exitcode.worst code (flush_outputs ()))

let guard f =
  try f () with
  | Faults.Checkpoint.Invalid msg ->
      Printf.eprintf "error: %s\n" msg;
      exit_via 2
  | Store.Db.Store_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit_via 2

(* Stale cursor hygiene: a run that shrank --jobs (or --logs) leaves
   high-numbered [FILE.shard<k>]/[FILE.fetch<k>] cursors behind.  Warn
   up front; delete only after a successful completion so a killed run
   keeps its evidence.  Each cursor family is judged only by the run
   mode that owns it: a generate-sourced run says nothing about
   [.fetch<k>] files (they are live resume state of an interrupted
   fetch, not stale droppings), so its [active_fetch] is [None]; a
   fetch-sourced run owns both families. *)
let cursor_active t ~scale =
  let nshards = List.length (Par.shards ~jobs:t.jobs scale) in
  let active_fetch =
    Option.map
      (fun cfg -> List.length (Par.shards ~jobs:cfg.Ctlog.Fetch.logs scale))
      t.fetch
  in
  (Some nshards, active_fetch)

let warn_stale_cursors t ~scale =
  match t.policy.Faults.Policy.checkpoint_file with
  | None -> ()
  | Some file ->
      let active_shards, active_fetch = cursor_active t ~scale in
      List.iter
        (fun f ->
          Printf.eprintf
            "warning: stale cursor %s (left by a run with more shards or \
             logs); it will be removed when this run completes\n"
            f)
        (Faults.Checkpoint.stale_cursors file ~active_shards ~active_fetch)

let cleanup_stale_cursors t ~scale =
  match t.policy.Faults.Policy.checkpoint_file with
  | None -> ()
  | Some file ->
      let active_shards, active_fetch = cursor_active t ~scale in
      ignore (Faults.Checkpoint.remove_stale file ~active_shards ~active_fetch)

let mutator ~default_seed t =
  if t.corrupt_rate <= 0.0 then None
  else
    Some
      (Faults.Mutator.plan
         ?kinds:t.corrupt_kinds
         ~seed:(Option.value ~default:default_seed t.corrupt_seed)
         ~rate:t.corrupt_rate ())

let arm_specs ~flag ~prefix ~mode specs =
  List.iter
    (fun spec ->
      match Faults.Injector.parse_spec spec with
      | Ok (target, every) -> Faults.Injector.arm ~mode ~every (prefix ^ target)
      | Error msg ->
          Printf.eprintf "error: %s: %s\n" flag msg;
          exit 2)
    specs

(* "LOG:REQUEST:LEAF" -> (log, at_request, flip), e.g. log-03:5:10. *)
let parse_equivocate spec =
  match String.split_on_char ':' spec with
  | [ log; req; leaf ] -> (
      match (int_of_string_opt req, int_of_string_opt leaf) with
      | Some r, Some l when r >= 0 && l >= 0 -> (log, r, l)
      | _ ->
          Printf.eprintf "error: --equivocate: bad spec %S (want LOG:REQUEST:LEAF)\n" spec;
          exit 2)
  | _ ->
      Printf.eprintf "error: --equivocate: bad spec %S (want LOG:REQUEST:LEAF)\n" spec;
      exit 2

let make corrupt_rate corrupt_seed corrupt_kinds drop max_errors fail_fast
    quarantine timeout checkpoint checkpoint_every resume fault_lints
    fault_models fault_hang breaker_threshold jobs source logs net_fault_rate
    net_seed net_kinds net_flap_rate net_down page_cap equivocate trace
    trace_sample trace_ring profile store =
  if corrupt_rate < 0.0 || corrupt_rate > 1.0 then begin
    Printf.eprintf "error: --corrupt-rate must be in [0,1]\n";
    exit 2
  end;
  if jobs <= 0 then begin
    Printf.eprintf
      "error: --jobs must be a positive worker count (got %d)\n" jobs;
    exit 2
  end;
  if breaker_threshold < 1 then begin
    Printf.eprintf "error: --breaker-threshold must be >= 1\n";
    exit 2
  end;
  if Option.fold ~none:false ~some:(fun m -> m < 1) max_errors then begin
    Printf.eprintf "error: --max-errors must be >= 1\n";
    exit 2
  end;
  let kinds =
    match corrupt_kinds with
    | None -> None
    | Some names ->
        Some
          (List.map
             (fun name ->
               match Faults.Mutator.kind_of_name name with
               | Some k -> k
               | None ->
                   Printf.eprintf
                     "error: --corrupt-kinds: unknown kind %S (known: %s)\n" name
                     (String.concat ", "
                        (List.map Faults.Mutator.kind_name Faults.Mutator.all_kinds));
                   exit 2)
             (String.split_on_char ',' names))
  in
  let mode = if fault_hang then Faults.Injector.Hang else Faults.Injector.Crash in
  arm_specs ~flag:"--fault-lint" ~prefix:"" ~mode fault_lints;
  arm_specs ~flag:"--fault-model" ~prefix:"model:" ~mode fault_models;
  (* Arm tracing/profiling here so every code path of every binary is
     covered without further threading; when the flags are absent the
     instrumented paths stay on their disabled fast path. *)
  if trace_sample < 1 then begin
    Printf.eprintf "error: --trace-sample must be >= 1\n";
    exit 2
  end;
  if trace_ring < 16 then begin
    Printf.eprintf "error: --trace-ring must be >= 16\n";
    exit 2
  end;
  (match trace with
  | None -> ()
  | Some file -> Obs.Trace.enable ~ring:trace_ring ~sample:trace_sample ~file ());
  if profile then begin
    Obs.Profile.enable ();
    profile_target := true
  end;
  let fetch =
    match source with
    | "generate" -> None
    | "fetch" ->
        if net_fault_rate < 0.0 || net_fault_rate > 1.0 then begin
          Printf.eprintf "error: --net-fault-rate must be in [0,1]\n";
          exit 2
        end;
        if logs < 1 then begin
          Printf.eprintf "error: --logs must be >= 1\n";
          exit 2
        end;
        if page_cap < 1 then begin
          Printf.eprintf "error: --page-cap must be >= 1\n";
          exit 2
        end;
        (* --breaker-threshold tunes the per-log fetch breakers as well as
           the pipeline boundary; set here once, so the cfg every binary
           fingerprints a store with is the cfg it fetches with. *)
        let base = { Ctlog.Fetch.default_cfg with Ctlog.Fetch.breaker_threshold } in
        let fault_kinds =
          match net_kinds with
          | None -> base.Ctlog.Fetch.fault_kinds
          | Some names ->
              List.map
                (fun name ->
                  match Net.Fault.kind_of_name name with
                  | Some k -> k
                  | None ->
                      Printf.eprintf
                        "error: --net-kinds: unknown kind %S (known: %s)\n" name
                        (String.concat ", "
                           (List.map Net.Fault.kind_name Net.Fault.all_kinds));
                      exit 2)
                (String.split_on_char ',' names)
        in
        Some
          { base with
            Ctlog.Fetch.logs;
            net_seed;
            fault_rate = net_fault_rate;
            fault_kinds;
            flap_rate = net_flap_rate;
            down =
              (match net_down with
              | None -> []
              | Some names -> String.split_on_char ',' names);
            page_cap;
            equivocate = List.map parse_equivocate equivocate;
          }
    | other ->
        Printf.eprintf "error: --source: unknown source %S (generate|fetch)\n"
          other;
        exit 2
  in
  {
    policy =
      {
        Faults.Policy.max_errors;
        fail_fast;
        quarantine_dir = quarantine;
        timeout_seconds = timeout;
        breaker_threshold;
        checkpoint_file = checkpoint;
        checkpoint_every;
      };
    corrupt_rate;
    corrupt_seed;
    corrupt_kinds = kinds;
    drop;
    resume;
    jobs;
    fetch;
    store;
  }

let term =
  let corrupt_rate =
    Arg.(value & opt float 0.0 & info [ "corrupt-rate" ] ~docv:"RATE"
         ~doc:"Corrupt this fraction of the generated corpus (seeded, deterministic) before delivery")
  in
  let corrupt_seed =
    Arg.(value & opt (some int) None & info [ "corrupt-seed" ] ~docv:"SEED"
         ~doc:"Mutator seed (default: the corpus seed)")
  in
  let corrupt_kinds =
    let known =
      String.concat ", " (List.map Faults.Mutator.kind_name Faults.Mutator.all_kinds)
    in
    Arg.(value & opt (some string) None & info [ "corrupt-kinds" ] ~docv:"K1,K2"
         ~doc:(Printf.sprintf
                 "Comma-separated mutation kinds (default: all). Known kinds: %s."
                 known))
  in
  let drop =
    Arg.(value & flag & info [ "drop-faulty" ]
         ~doc:"Deliver nothing for corrupted indices instead of the corrupted bytes (A/B baseline)")
  in
  let max_errors =
    Arg.(value & opt (some int) None & info [ "max-errors" ] ~docv:"N"
         ~doc:"Abort the run after N per-certificate errors")
  in
  let fail_fast =
    Arg.(value & flag & info [ "fail-fast" ]
         ~doc:"Abort on the first per-certificate error")
  in
  let quarantine =
    Arg.(value & opt (some string) None & info [ "quarantine" ] ~docv:"DIR"
         ~doc:"Write offending certificates and their errors to a JSONL sidecar in DIR")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Per-certificate watchdog; a slow certificate counts as a timeout fault")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Save pipeline state to FILE periodically (atomic rename)")
  in
  let checkpoint_every =
    Arg.(value & opt int Faults.Policy.default.Faults.Policy.checkpoint_every
         & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Certificates between checkpoint saves")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
         ~doc:"Continue from the --checkpoint file when it matches this run's scale and seed")
  in
  let fault_lints =
    Arg.(value & opt_all string [] & info [ "fault-lint" ] ~docv:"NAME:EVERY"
         ~doc:"Make lint NAME raise on every EVERY-th invocation (repeatable)")
  in
  let fault_models =
    Arg.(value & opt_all string [] & info [ "fault-model" ] ~docv:"NAME:EVERY"
         ~doc:"Make parser model NAME raise on every EVERY-th invocation (repeatable)")
  in
  let fault_hang =
    Arg.(value & flag & info [ "fault-hang" ]
         ~doc:"Injected faults hang (bounded busy loop) instead of raising")
  in
  let breaker_threshold =
    Arg.(value & opt int Faults.Breaker.default_threshold
         & info [ "breaker-threshold" ] ~docv:"N"
         ~doc:"Consecutive crashes before a lint/model circuit breaker opens")
  in
  let jobs =
    Arg.(value & opt int (Par.default_jobs ()) & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:(Printf.sprintf
                 "Worker domains for corpus passes; must be >= 1 (default: \
                  the runtime's recommended domain count, %d on this \
                  machine).  A completed pass produces byte-identical \
                  output for every N"
                 (Par.default_jobs ())))
  in
  let source =
    Arg.(value & opt string "generate" & info [ "source" ] ~docv:"SOURCE"
         ~doc:"Corpus source: $(b,generate) synthesizes certificates \
               in-process (the default); $(b,fetch) retrieves them page by \
               page from simulated CT logs over a fault-injected transport \
               with retries, backoff, rate limiting and STH consistency \
               verification")
  in
  let logs =
    Arg.(value & opt int Ctlog.Fetch.default_cfg.Ctlog.Fetch.logs
         & info [ "logs" ] ~docv:"N"
         ~doc:"Number of simulated CT logs the corpus is partitioned across \
               (fetch source)")
  in
  let net_fault_rate =
    Arg.(value & opt float Ctlog.Fetch.default_cfg.Ctlog.Fetch.fault_rate
         & info [ "net-fault-rate" ] ~docv:"RATE"
         ~doc:"Per-request transport fault probability in [0,1] (fetch \
               source; seeded, deterministic)")
  in
  let net_seed =
    Arg.(value & opt (some int) None & info [ "net-seed" ] ~docv:"SEED"
         ~doc:"Transport fault-plan seed (default: derived from the corpus \
               seed)")
  in
  let net_kinds =
    Arg.(value & opt (some string) None & info [ "net-kinds" ] ~docv:"K1,K2"
         ~doc:"Comma-separated transport fault kinds (default: all)")
  in
  let net_flap_rate =
    Arg.(value & opt float Ctlog.Fetch.default_cfg.Ctlog.Fetch.flap_rate
         & info [ "net-flap-rate" ] ~docv:"RATE"
         ~doc:"Probability a log enters a flapping window where every \
               request resets (fetch source)")
  in
  let net_down =
    Arg.(value & opt (some string) None & info [ "net-down" ] ~docv:"L1,L2"
         ~doc:"Comma-separated names of permanently dead logs, e.g. \
               $(b,log-03): their breakers trip and coverage degrades \
               instead of the run aborting")
  in
  let page_cap =
    Arg.(value & opt int Ctlog.Fetch.default_cfg.Ctlog.Fetch.page_cap
         & info [ "page-cap" ] ~docv:"N"
         ~doc:"Maximum get-entries rows a simulated log returns per page")
  in
  let equivocate =
    Arg.(value & opt_all string [] & info [ "equivocate" ] ~docv:"LOG:REQ:LEAF"
         ~doc:"Make LOG serve a forked view (leaf LEAF flipped) from its \
               REQ-th request on — the split-view detection drill \
               (repeatable)")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a structured trace of the run to FILE: Chrome \
               trace_event JSON (open in Perfetto or chrome://tracing), or \
               one event per line when FILE ends in $(b,.jsonl)")
  in
  let trace_sample =
    Arg.(value & opt int Obs.Trace.default_sample
         & info [ "trace-sample" ] ~docv:"N"
         ~doc:"Trace every N-th per-lint / per-parser-model invocation \
               (1 traces all; pipeline, shard, net and fetch spans are \
               never sampled)")
  in
  let trace_ring =
    Arg.(value & opt int Obs.Trace.default_ring
         & info [ "trace-ring" ] ~docv:"N"
         ~doc:"Trace ring-buffer capacity in events; when full the oldest \
               events are evicted (the exporter keeps begin/end pairing \
               balanced)")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
         ~doc:"Attribute GC work (minor/major words, collections) to the \
               span it happened in and log the slowest certificates with \
               their dominant stage")
  in
  let store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Land the run in the crash-safe on-disk certificate store at \
               DIR: a cold run populates it (resumable after a kill), a \
               warm re-run replays stored analysis rows without \
               regenerating or re-linting, and a re-run after the lint set \
               changed recomputes only the missing columns")
  in
  Term.(const make $ corrupt_rate $ corrupt_seed $ corrupt_kinds $ drop
        $ max_errors $ fail_fast $ quarantine $ timeout $ checkpoint
        $ checkpoint_every $ resume $ fault_lints $ fault_models $ fault_hang
        $ breaker_threshold $ jobs $ source $ logs $ net_fault_rate $ net_seed
        $ net_kinds $ net_flap_rate $ net_down $ page_cap $ equivocate $ trace
        $ trace_sample $ trace_ring $ profile $ store)
