let all =
  Lints_character.lints @ Lints_normalization.lints @ Lints_format.lints
  @ Lints_encoding.lints @ Lints_structure.lints

(* Duplicate lint names would silently skew every aggregate. *)
let () =
  let names = List.map (fun (l : Types.t) -> l.Types.name) all in
  let unique = List.sort_uniq String.compare names in
  if List.length names <> List.length unique then
    invalid_arg "Lint registry contains duplicate names"

(* O(1) lookup tables, built once at module init (read-only afterwards,
   so safe to share across domains).  [find] runs once per stored lint
   name when replaying analysis rows — linear scans over 95 lints were
   measurable at store scale. *)
let by_name_tbl =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (l : Types.t) -> Hashtbl.replace tbl l.Types.name l) all;
  tbl

let find name = Hashtbl.find_opt by_name_tbl name

let by_type_tbl =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (l : Types.t) ->
      Hashtbl.replace tbl l.Types.nc_type
        (l :: Option.value ~default:[] (Hashtbl.find_opt tbl l.Types.nc_type)))
    all;
  List.iter
    (fun ty -> Hashtbl.replace tbl ty (List.rev (Hashtbl.find tbl ty)))
    (List.sort_uniq compare
       (List.map (fun (l : Types.t) -> l.Types.nc_type) all));
  tbl

let by_type t = Option.value ~default:[] (Hashtbl.find_opt by_type_tbl t)

let counts_by_type t =
  let lints = by_type t in
  (List.length lints, List.length (List.filter (fun (l : Types.t) -> l.Types.is_new) lints))

(* --- telemetry ------------------------------------------------------ *)

(* The registry as an array: the runner indexes lints, their
   instruments and its verdicts by one position. *)
let lints = Array.of_list all

(* One instrument record per lint, resolved once and threaded through
   the runner as a parallel array: the hot loop (95 lints x every
   corpus certificate) must only pay counter adds, never a
   name-to-counter lookup.  Per-lint wall clock is sampled per
   certificate (see [run_checks]) so the estimate stays useful while
   the common path skips the clock entirely. *)
type instr = {
  invocations : Obs.Counter.t;  (** checks actually run (non-NA) *)
  fail : Obs.Counter.t;
  warn : Obs.Counter.t;
  na : Obs.Counter.t;
  seconds : Obs.Counter.t;      (** sampled cumulative check time *)
  tick : int Atomic.t;          (** trace-sampling counter, traced runs only *)
  breaker : Faults.Breaker.t;
}

let time_sample = 8

let instruments =
  lazy
    (let mk family (l : Types.t) =
       Obs.Counter.Labeled.get family l.Types.name
     in
     let invocations =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:"Lint checks executed (excluding effective-date NA skips)"
         "unicert_lint_invocations_total"
     and fail =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:"Fail findings per lint" "unicert_lint_fail_total"
     and warn =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:"Warn findings per lint" "unicert_lint_warn_total"
     and na =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:"Effective-date NA skips per lint" "unicert_lint_na_total"
     and seconds =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:
           (Printf.sprintf
              "Cumulative check wall-clock per lint (sampled 1/%d, scaled)"
              time_sample)
         "unicert_lint_seconds_total"
     in
     Array.map
       (fun l ->
         { invocations = mk invocations l; fail = mk fail l; warn = mk warn l;
           na = mk na l; seconds = mk seconds l; tick = Atomic.make 0;
           breaker = Faults.Breaker.create l.Types.name })
       lints)

(* One check behind the breaker and the error boundary.  The
   fault-injection hook is a single bool read when no injection
   campaign is armed, so the clean path stays flat. *)
let checked ins (l : Types.t) ctx =
  if Faults.Breaker.tripped ins.breaker then Types.Na
  else begin
    Obs.Counter.inc ins.invocations;
    (* Per-lint trace spans are sampled (--trace-sample): 95 lints per
       certificate would otherwise dominate the ring.  The per-lint
       counter only advances while tracing is on; [sampled_span]'s own
       per-domain counter is measurably slower at this rate. *)
    let traced =
      Obs.Trace.enabled ()
      && Obs.Trace.sample_hit (1 + Atomic.fetch_and_add ins.tick 1)
    in
    if traced then Obs.Trace.emit_begin ~cat:"lint" l.Types.name;
    match
      if Faults.Injector.active () then Faults.Injector.tick l.Types.name;
      l.Types.check ctx
    with
    | status ->
        if traced then Obs.Trace.emit_end ~cat:"lint" l.Types.name;
        Faults.Breaker.success ins.breaker;
        (match status with
        | Types.Fail _ -> Obs.Counter.inc ins.fail
        | Types.Warn _ -> Obs.Counter.inc ins.warn
        | Types.Na | Types.Pass -> ());
        status
    (* The error boundary: one crashing lint degrades to NA for this
       certificate instead of killing the run. *)
    | exception e ->
        if traced then Obs.Trace.emit_end ~cat:"lint" l.Types.name;
        Faults.Breaker.failure ins.breaker;
        Faults.Error.observe
          (Faults.Error.Lint_crash
             { lint = l.Types.name;
               exn_name = Faults.Error.exn_name e;
               detail = Printexc.to_string e });
        Types.Na
  end

type lint_obs = {
  lint_name : string;
  invoked : float;
  failed : float;
  warned : float;
  skipped_na : float;
  est_seconds : float;
}

let obs_snapshot () =
  List.map2
    (fun (l : Types.t) ins ->
      { lint_name = l.Types.name;
        invoked = Obs.Counter.value ins.invocations;
        failed = Obs.Counter.value ins.fail;
        warned = Obs.Counter.value ins.warn;
        skipped_na = Obs.Counter.value ins.na;
        est_seconds = Obs.Counter.value ins.seconds })
    all
    (Array.to_list (Lazy.force instruments))

(* --- the runner ----------------------------------------------------- *)

let selected ~include_new ~only (l : Types.t) =
  (include_new || not l.Types.is_new)
  && match only with None -> true | Some p -> p l

(* Every 8th certificate (process-wide) is timed: one clock read before
   its first lint and one after each check, so each lint is charged the
   interval since the previous read and every lint is still sampled at
   1 in [time_sample]. *)
let cert_tick = Atomic.make 0

(* The verdicts of one certificate, indexed like [lints].  A lint the
   pass did not select keeps [Na] here; [run] and [noncompliant]
   re-apply [selected] so it yields no finding. *)
let run_checks ~respect_effective_dates ~include_new ~only ~issued ctx =
  let inss = Lazy.force instruments in
  let verdicts = Array.make (Array.length lints) Types.Na in
  let timed = Atomic.fetch_and_add cert_tick 1 mod time_sample = 0 in
  let last = ref (if timed then Unix.gettimeofday () else 0.) in
  for i = 0 to Array.length lints - 1 do
    let l = Array.unsafe_get lints i and ins = Array.unsafe_get inss i in
    if selected ~include_new ~only l then
      if respect_effective_dates && Asn1.Time.(issued < l.Types.effective_date)
      then Obs.Counter.inc ins.na
      else begin
        Array.unsafe_set verdicts i (checked ins l ctx);
        if timed then begin
          let now = Unix.gettimeofday () in
          Obs.Counter.add ins.seconds
            (Float.max 0. (now -. !last) *. float_of_int time_sample);
          last := now
        end
      end
  done;
  verdicts

(* The findings of the selected lints whose verdict passes [keep], in
   registry order. *)
let findings ~include_new ~only ~keep verdicts =
  let acc = ref [] in
  for i = Array.length lints - 1 downto 0 do
    let lint = lints.(i) and status = verdicts.(i) in
    if selected ~include_new ~only lint && keep status then
      acc := { Types.lint; status } :: !acc
  done;
  !acc

let lint_span = Obs.Span.v "lint"

let run_ctx ?(respect_effective_dates = true) ?(include_new = true) ?only
    ~issued ctx =
  Obs.Span.run lint_span @@ fun () ->
  let verdicts =
    run_checks ~respect_effective_dates ~include_new ~only ~issued ctx
  in
  let acc = ref [] in
  for i = Array.length lints - 1 downto 0 do
    match verdicts.(i) with
    | Types.Warn _ | Types.Fail _ -> acc := lints.(i) :: !acc
    | Types.Na | Types.Pass -> ()
  done;
  !acc

let run ?(respect_effective_dates = true) ?(include_new = true) ?only ~issued
    cert =
  Obs.Span.run lint_span @@ fun () ->
  run_checks ~respect_effective_dates ~include_new ~only ~issued
    (Ctx.of_cert cert)
  |> findings ~include_new ~only ~keep:(fun _ -> true)

let noncompliant ?(respect_effective_dates = true) ?(include_new = true)
    ~issued cert =
  Obs.Span.run lint_span @@ fun () ->
  run_checks ~respect_effective_dates ~include_new ~only:None ~issued
    (Ctx.of_cert cert)
  |> findings ~include_new ~only:None ~keep:(function
       | Types.Warn _ | Types.Fail _ -> true
       | Types.Na | Types.Pass -> false)

(* --- fault accounting ----------------------------------------------- *)

let fault_snapshot () =
  List.filter_map
    (fun ins ->
      let b = ins.breaker in
      if Faults.Breaker.crashes b > 0 then
        Some (Faults.Breaker.name b, Faults.Breaker.crashes b, Faults.Breaker.tripped b)
      else None)
    (Array.to_list (Lazy.force instruments))

let degraded () =
  List.filter_map
    (fun ins ->
      if Faults.Breaker.tripped ins.breaker then
        Some (Faults.Breaker.name ins.breaker, Faults.Breaker.crashes ins.breaker)
      else None)
    (Array.to_list (Lazy.force instruments))

let set_breaker_threshold n =
  Array.iter (fun ins -> Faults.Breaker.set_threshold ins.breaker n)
    (Lazy.force instruments)

let reset_faults () =
  Array.iter (fun ins -> Faults.Breaker.reset ins.breaker) (Lazy.force instruments)
