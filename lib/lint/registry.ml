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

(* One instrument record per lint, resolved once and threaded through
   the runner as a parallel array: the hot loop (95 lints x every
   corpus certificate) must only pay float adds, never a
   name-to-counter lookup.  Per-lint wall clock is sampled (one timed
   invocation in [time_sample], scaled back up) so the estimate stays
   useful while the common path skips the clock entirely. *)
type instr = {
  invocations : Obs.Counter.t;  (** checks actually run (non-NA) *)
  fail : Obs.Counter.t;
  warn : Obs.Counter.t;
  na : Obs.Counter.t;
  seconds : Obs.Counter.t;      (** sampled cumulative check time *)
  tick : int Atomic.t;
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
     List.map
       (fun l ->
         { invocations = mk invocations l; fail = mk fail l; warn = mk warn l;
           na = mk na l; seconds = mk seconds l; tick = Atomic.make 0;
           breaker = Faults.Breaker.create l.Types.name })
       all)

(* The check body, with the fault-injection hook.  [Injector.active]
   is a single bool read when no injection campaign is armed, so the
   clean path stays flat. *)
let invoke (l : Types.t) ctx =
  if Faults.Injector.active () then Faults.Injector.tick l.Types.name;
  l.Types.check ctx

let checked ins (l : Types.t) ctx =
  if Faults.Breaker.tripped ins.breaker then Types.Na
  else begin
    let tick = 1 + Atomic.fetch_and_add ins.tick 1 in
    Obs.Counter.inc ins.invocations;
    (* Per-lint trace spans are sampled (--trace-sample): 95 lints per
       certificate would otherwise dominate the ring.  The sampling
       decision reuses [ins.tick] — this path runs once per lint per
       certificate, and [sampled_span]'s own per-domain counter is
       measurably slower at that rate. *)
    let body () =
      if tick mod time_sample = 0 then begin
        let t0 = Unix.gettimeofday () in
        let status = invoke l ctx in
        Obs.Counter.add ins.seconds
          ((Unix.gettimeofday () -. t0) *. float_of_int time_sample);
        status
      end
      else invoke l ctx
    in
    match
      if Obs.Trace.sample_hit tick then
        Obs.Trace.span ~cat:"lint" l.Types.name body
      else body ()
    with
    | status ->
        Faults.Breaker.success ins.breaker;
        (match status with
        | Types.Fail _ -> Obs.Counter.inc ins.fail
        | Types.Warn _ -> Obs.Counter.inc ins.warn
        | Types.Na | Types.Pass -> ());
        status
    (* The error boundary: one crashing lint degrades to NA for this
       certificate instead of killing the run. *)
    | exception e ->
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
    all (Lazy.force instruments)

(* --- the runner ----------------------------------------------------- *)

let run_checks ~respect_effective_dates ~include_new ~only ~issued ctx =
  let wanted =
    match only with None -> fun _ -> true | Some p -> p
  in
  (* Hand-rolled two-list filter_map: this runs once per corpus
     certificate, so no intermediate option list. *)
  let rec go ls inss acc =
    match (ls, inss) with
    | [], _ -> List.rev acc
    | (l : Types.t) :: ls, ins :: inss ->
        if ((not include_new) && l.Types.is_new) || not (wanted l) then
          go ls inss acc
        else if
          respect_effective_dates && Asn1.Time.(issued < l.Types.effective_date)
        then begin
          Obs.Counter.inc ins.na;
          go ls inss ({ Types.lint = l; status = Types.Na } :: acc)
        end
        else go ls inss ({ Types.lint = l; status = checked ins l ctx } :: acc)
    | _ :: _, [] -> assert false
  in
  go all (Lazy.force instruments) []

let run_ctx ?(respect_effective_dates = true) ?(include_new = true) ?only
    ~issued ctx =
  Obs.Span.with_ "lint" @@ fun () ->
  run_checks ~respect_effective_dates ~include_new ~only ~issued ctx

let run ?(respect_effective_dates = true) ?(include_new = true) ?only ~issued
    cert =
  Obs.Span.with_ "lint" @@ fun () ->
  run_checks ~respect_effective_dates ~include_new ~only ~issued
    (Ctx.of_cert cert)

let noncompliant ?respect_effective_dates ?include_new ~issued cert =
  run ?respect_effective_dates ?include_new ~issued cert
  |> List.filter Types.is_noncompliant

(* --- fault accounting ----------------------------------------------- *)

let fault_snapshot () =
  List.filter_map
    (fun ins ->
      let b = ins.breaker in
      if Faults.Breaker.crashes b > 0 then
        Some (Faults.Breaker.name b, Faults.Breaker.crashes b, Faults.Breaker.tripped b)
      else None)
    (Lazy.force instruments)

let degraded () =
  List.filter_map
    (fun ins ->
      if Faults.Breaker.tripped ins.breaker then
        Some (Faults.Breaker.name ins.breaker, Faults.Breaker.crashes ins.breaker)
      else None)
    (Lazy.force instruments)

let set_breaker_threshold n =
  List.iter (fun ins -> Faults.Breaker.set_threshold ins.breaker n)
    (Lazy.force instruments)

let reset_faults () =
  List.iter (fun ins -> Faults.Breaker.reset ins.breaker) (Lazy.force instruments)
