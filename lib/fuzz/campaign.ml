(* The coverage-guided campaign driver.

   Coverage feedback is inherently sequential (the corpus grows as
   novel outcome signatures appear), so the campaign runs in *rounds*:
   each round fixes the corpus snapshot, generates a fixed-size batch
   of candidates pure in [(seed, round, index)], evaluates the batch
   sharded under [Par] (evaluation is a pure function of the DER — see
   [Exec]), merges results in index order, and only then folds them
   into the corpus and findings sequentially.  The merged stream is
   therefore independent of [--jobs]: same seed and budget yield
   byte-identical findings for any shard count.

   Two escape hatches are *not* covered by the byte-identity contract
   and are documented as such: a per-candidate watchdog timeout that
   actually fires (worker-domain watchdogs are post hoc and
   machine-dependent), and armed fault injection with [--fault-hang].
   Deterministic injection ([--fault-model NAME:1]) keeps the contract:
   every evaluation of the model crashes identically.

   A structured candidate's certificate, and so its evaluation, is a
   pure function of its [(context, declared type, payload)] key, and
   most keys come back many times in a campaign.  The campaign keeps
   what the fold reads of each key's evaluation in one table, and a
   repeat skips both the build and the evaluation.  Shards only read
   the table; the fold adds a round's new keys in index order, so the
   table's contents at every round are independent of [--jobs].  A
   repeat's signature is already seen, so it never needs its DER: it
   cannot become a corpus entry or a finding.  The table is bypassed
   where [eval] is not pure in its input (a watchdog timeout, an armed
   injector), stops growing at [table_cap] entries, and is left out of
   the checkpoint: a resumed campaign starts with an empty one. *)

type config = {
  seed : int;
  budget : int;  (* total candidate executions *)
  round_size : int;
  jobs : int;
  timeout : float;  (* per-candidate watchdog seconds; 0 = off *)
  max_seconds : float option;  (* wall-clock budget; None = unlimited *)
  breaker_threshold : int;
  checkpoint : string option;
  resume : bool;
  corpus_cap : int;
  minimize_findings : bool;
}

let default_config =
  { seed = 1; budget = 512; round_size = 64; jobs = 1; timeout = 0.;
    max_seconds = None; breaker_threshold = Faults.Breaker.default_threshold;
    checkpoint = None; resume = false; corpus_cap = 256;
    minimize_findings = false }

type status = Completed | Wall_abort of float

type t = {
  status : status;
  executions : int;
  rounds : int;
  findings : Findings.finding list;  (* discovery order *)
  corpus_size : int;
  signatures : int;  (* distinct outcome signatures observed *)
  degraded : (string * int) list;
      (* models whose real-crash count reached the breaker threshold *)
  first_disagreement : int option;
      (* execution number of the first non-agreement outcome *)
}

(* Checkpoint payload: everything the round loop folds sequentially.
   Lists are kept in reverse discovery order (cheap cons). *)
type ckpt_state = {
  ck_round : int;
  ck_corpus : string list;  (* oldest first *)
  ck_sigs : string list;  (* reversed *)
  ck_findings : Findings.finding list;  (* reversed *)
  ck_counts : (string * int) list;  (* non-agreement signature -> occurrences *)
  ck_crashes : (string * int) list;
  ck_first : int option;
}

let obs_execs =
  lazy
    (Obs.Registry.counter
       ~help:"Fuzzer candidate executions: evaluations plus repeats"
       "unicert_fuzz_execs_total")

let obs_repeats =
  lazy
    (Obs.Registry.counter
       ~help:"Fuzzer candidates answered from the campaign's table of evaluated keys"
       "unicert_fuzz_repeats_total")

let obs_findings =
  lazy
    (Obs.Registry.labeled_counter ~label:"class"
       ~help:"Fuzzer findings by anomaly class" "unicert_fuzz_findings_total")

let obs_rounds =
  lazy (Obs.Registry.counter ~help:"Fuzzer rounds completed" "unicert_fuzz_rounds_total")

(* Deterministic initial corpus: a few battery-shaped certificates so
   byte-level mutation has parents from round 0. *)
let initial_corpus () =
  List.map
    (fun m -> (Tlsparsers.Testgen.make m).X509.Certificate.der)
    [ Tlsparsers.Testgen.Subject_attr
        (X509.Attr.Common_name, Asn1.Str_type.Printable_string, "test.com");
      Tlsparsers.Testgen.Subject_attr
        (X509.Attr.Common_name, Asn1.Str_type.Utf8_string, "b\xC3\xBCcher.example");
      Tlsparsers.Testgen.Subject_attr
        (X509.Attr.Common_name, Asn1.Str_type.Bmp_string,
         "\x00t\x00e\x00s\x00t");
      Tlsparsers.Testgen.San_dns "xn--bcher-kva.example" ]

(* What the fold reads of one evaluation: all a repeat keeps. *)
type outcome = { signature : string; cls : string; crashes : (string * int) list }

type execution =
  | Repeat of outcome
  | Evaluated of Gen.spec * outcome

let table_cap = 16_384

let eval_guarded cfg (spec : Gen.spec) =
  let run () = Exec.eval ~threshold:cfg.breaker_threshold spec.Gen.der in
  try
    if cfg.timeout > 0. then
      Faults.Watchdog.with_timeout ~stage:"fuzz_eval" ~seconds:cfg.timeout run
    else run ()
  with
  | Faults.Watchdog.Timed_out { stage; _ } -> Exec.timeout_eval stage
  | e -> Exec.crash_eval (Faults.Error.exn_name e)

let run ?(table_cap = table_cap) cfg =
  if cfg.round_size < 1 || cfg.round_size > Gen.max_round_size then
    invalid_arg "Fuzz.Campaign.run: round_size out of range";
  if cfg.budget < 0 then invalid_arg "Fuzz.Campaign.run: negative budget";
  let execs_c = Lazy.force obs_execs in
  let repeats_c = Lazy.force obs_repeats in
  let findings_c = Lazy.force obs_findings in
  let rounds_c = Lazy.force obs_rounds in
  (* resume: reload the fold state; a checkpoint from a different
     (seed, budget) run is ignored rather than silently continued *)
  let st =
    let fresh =
      { ck_round = 0; ck_corpus = initial_corpus (); ck_sigs = [];
        ck_findings = []; ck_counts = []; ck_crashes = []; ck_first = None }
    in
    match cfg.checkpoint with
    | Some path when cfg.resume -> (
        match Faults.Checkpoint.load path with
        | Some cp
          when cp.Faults.Checkpoint.seed = cfg.seed
               && cp.Faults.Checkpoint.scale = cfg.budget ->
            cp.Faults.Checkpoint.state
        | Some _ ->
            Printf.eprintf
              "warning: checkpoint is from a different campaign (seed/budget \
               mismatch); starting fresh\n";
            fresh
        | None -> fresh)
    | _ -> fresh
  in
  (* signature -> its first copy, which the table's outcomes share *)
  let seen = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace seen s s) st.ck_sigs;
  let use_table = cfg.timeout <= 0. && not (Faults.Injector.active ()) in
  let table = Hashtbl.create 1024 in
  let key_of = function
    | Gen.Structured { context; declared; payload; _ } when use_table ->
        Some (context, declared, payload)
    | Gen.Structured _ | Gen.Mutant _ -> None
  in
  let counts = Hashtbl.create 256 in
  List.iter (fun (s, n) -> Hashtbl.replace counts s n) st.ck_counts;
  let round = ref st.ck_round in
  (* executions derive from completed rounds: every full round ran
     [round_size] candidates, the final round the remainder *)
  let executions = ref (min (st.ck_round * cfg.round_size) cfg.budget) in
  let corpus = ref st.ck_corpus in
  let sigs = ref st.ck_sigs in
  let findings = ref st.ck_findings in
  let crashes = ref st.ck_crashes in
  let first = ref st.ck_first in
  let t0 = Unix.gettimeofday () in
  let wall_exceeded () =
    match cfg.max_seconds with
    | None -> false
    | Some m -> Unix.gettimeofday () -. t0 >= m
  in
  let save_ckpt () =
    match cfg.checkpoint with
    | None -> ()
    | Some path ->
        Faults.Checkpoint.save path
          { Faults.Checkpoint.scale = cfg.budget; seed = cfg.seed;
            next_index = !executions;
            state =
              { ck_round = !round; ck_corpus = !corpus; ck_sigs = !sigs;
                ck_findings = !findings;
                ck_counts =
                  Hashtbl.fold (fun s n acc -> (s, n) :: acc) counts []
                  |> List.sort compare;
                ck_crashes = !crashes; ck_first = !first } }
  in
  let status = ref Completed in
  let continue = ref true in
  while !continue do
    if !executions >= cfg.budget then continue := false
    else if wall_exceeded () then begin
      status := Wall_abort (Unix.gettimeofday () -. t0);
      continue := false
    end
    else begin
      let n = min cfg.round_size (cfg.budget - !executions) in
      let corpus_arr = Array.of_list !corpus in
      let evals =
        Obs.Span.with_ "fuzz_round" (fun () ->
            Par.map_shards ~jobs:cfg.jobs ~scale:n (fun ~shard:_ ~lo ~hi ->
                List.init (hi - lo) (fun k ->
                    let index = lo + k in
                    let draw =
                      Gen.draw ~seed:cfg.seed ~round:!round ~index
                        ~corpus:corpus_arr
                    in
                    let key = key_of draw in
                    match Option.bind key (Hashtbl.find_opt table) with
                    | Some o -> (index, key, Repeat o)
                    | None ->
                        let spec = Gen.spec_of_draw draw in
                        let e = eval_guarded cfg spec in
                        ( index, key,
                          Evaluated
                            ( spec,
                              { signature = e.Exec.signature; cls = e.Exec.cls;
                                crashes = e.Exec.crashes } ) )))
            |> List.concat)
      in
      (* sequential fold, index order: corpus/signature/finding updates *)
      List.iter
        (fun (index, key, execution) ->
          Obs.Counter.inc execs_c;
          let exec = !executions + index in
          let o = match execution with Repeat o | Evaluated (_, o) -> o in
          if o.cls <> "agreement" then begin
            if !first = None then first := Some exec;
            Hashtbl.replace counts o.signature
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts o.signature))
          end;
          List.iter
            (fun (m, c) ->
              let prev = Option.value ~default:0 (List.assoc_opt m !crashes) in
              crashes := (m, prev + c) :: List.remove_assoc m !crashes)
            o.crashes;
          match execution with
          | Repeat _ -> Obs.Counter.inc repeats_c
          | Evaluated (spec, _) ->
              let signature =
                match Hashtbl.find_opt seen o.signature with
                | Some s -> s
                | None ->
                    Hashtbl.replace seen o.signature o.signature;
                    sigs := o.signature :: !sigs;
                    if List.length !corpus < cfg.corpus_cap then
                      corpus := !corpus @ [ spec.Gen.der ];
                    if o.cls <> "agreement" then begin
                      Obs.Counter.inc (Obs.Counter.Labeled.get findings_c o.cls);
                      findings :=
                        { Findings.round = !round; index; exec;
                          cluster =
                            Findings.cluster_id ~cls:o.cls ~signature:o.signature;
                          cls = o.cls; signature = o.signature;
                          op = spec.Gen.op;
                          context = Gen.context_name spec.Gen.context;
                          declared = Asn1.Str_type.name spec.Gen.declared;
                          count = 0; der = spec.Gen.der; min_der = None }
                        :: !findings
                    end;
                    o.signature
              in
              (* a key repeated within this round was evaluated twice;
                 the first in index order is kept *)
              match key with
              | Some k
                when Hashtbl.length table < table_cap && not (Hashtbl.mem table k) ->
                  Hashtbl.add table k { o with signature }
              | _ -> ())
        evals;
      executions := !executions + n;
      incr round;
      Obs.Counter.inc rounds_c;
      save_ckpt ()
    end
  done;
  save_ckpt ();
  (* !findings is newest-first; rev_map restores discovery order while
     stamping the campaign-wide occurrence counts *)
  let findings_fwd =
    List.rev_map
      (fun (f : Findings.finding) ->
        { f with
          Findings.count =
            Option.value ~default:1 (Hashtbl.find_opt counts f.Findings.signature) })
      !findings
  in
  let findings_fwd =
    if not cfg.minimize_findings then findings_fwd
    else
      List.map
        (fun (f : Findings.finding) ->
          { f with
            Findings.min_der =
              Some (Minimize.minimize ~threshold:cfg.breaker_threshold f.Findings.der) })
        findings_fwd
  in
  let degraded =
    List.filter (fun (_, c) -> c >= cfg.breaker_threshold) !crashes
    |> List.sort compare
  in
  { status = !status; executions = !executions; rounds = !round;
    findings = findings_fwd; corpus_size = List.length !corpus;
    signatures = List.length !sigs; degraded; first_disagreement = !first }
