(* unicert-store: manage the crash-safe on-disk certificate store —
   build it from a corpus pass (optionally under chaos injection),
   check and repair it, inspect identity and inventory, and query its
   persistent indexes.

   Exit codes follow the repo contract: 2 = unusable input (absent
   store, bad identity, bad flags), 3 = aborted / unusable store,
   4 = completed but degraded (issues found, yet intact data remains). *)

open Cmdliner

let dir_arg =
  Arg.(required & opt (some string) None
       & info [ "dir" ] ~docv:"DIR" ~doc:"Store directory")

(* --- chaos flags (build) --- *)

let parse_crash_at spec =
  let point, occurrence =
    match String.index_opt spec ':' with
    | None -> (spec, 1)
    | Some i -> (
        let point = String.sub spec 0 i in
        match
          int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
        with
        | Some occ when occ >= 1 -> (point, occ)
        | _ ->
            Printf.eprintf
              "error: --crash-at: bad occurrence in %S (want POINT[:N], N >= 1)\n"
              spec;
            Fault_cli.exit_via 2)
  in
  if not (List.mem point Store.Chaos.crash_points) then begin
    Printf.eprintf
      "error: --crash-at: unknown crash point %S (run `unicert-store \
       crash-points`)\n"
      point;
    Fault_cli.exit_via 2
  end;
  (point, occurrence)

let arm_chaos ~chaos_rate ~chaos_seed ~chaos_kinds ~crash_at =
  if chaos_rate < 0.0 || chaos_rate > 1.0 then begin
    Printf.eprintf "error: --chaos-rate must be in [0,1]\n";
    Fault_cli.exit_via 2
  end;
  let kinds =
    match chaos_kinds with
    | None -> Store.Chaos.all_kinds
    | Some names ->
        List.map
          (fun name ->
            match Store.Chaos.kind_of_name name with
            | Some k -> k
            | None ->
                Printf.eprintf
                  "error: --chaos-kinds: unknown kind %S (known: %s)\n" name
                  (String.concat ", "
                     (List.map Store.Chaos.kind_name Store.Chaos.all_kinds));
                Fault_cli.exit_via 2)
          (String.split_on_char ',' names)
  in
  if chaos_rate > 0.0 then
    Store.Chaos.arm { Store.Chaos.seed = chaos_seed; rate = chaos_rate; kinds };
  List.iter
    (fun spec ->
      let point, occurrence = parse_crash_at spec in
      Store.Chaos.arm_crash ~point ~occurrence)
    crash_at

(* --- build --- *)

let build dir scale seed (fault : Fault_cli.t) chaos_rate chaos_seed
    chaos_kinds crash_at () () =
  arm_chaos ~chaos_rate ~chaos_seed ~chaos_kinds ~crash_at;
  let source =
    match fault.Fault_cli.fetch with
    | Some cfg -> Unicert.Pipeline.Fetch cfg
    | None -> Unicert.Pipeline.Generate
  in
  Fault_cli.warn_stale_cursors fault ~scale;
  let t =
    Fault_cli.guard (fun () ->
        try
          Unicert.Pipeline.run ~scale ~seed ~policy:fault.Fault_cli.policy
            ?mutator:(Fault_cli.mutator ~default_seed:seed fault)
            ~drop:fault.Fault_cli.drop ~resume:fault.Fault_cli.resume
            ~jobs:fault.Fault_cli.jobs ~source ~store:dir ()
        with Store.Chaos.Crashed point ->
          (* The store is in exactly the state a SIGKILL would have left;
             rerunning the same command recovers and completes. *)
          Printf.eprintf
            "simulated crash at %s; rerun the same command to recover\n" point;
          Fault_cli.exit_via 3)
  in
  Store.Chaos.disarm ();
  Printf.printf "store %s: %d certificate(s), %d noncompliant, %d fault record(s)\n"
    dir t.Unicert.Pipeline.total t.Unicert.Pipeline.nc_total
    t.Unicert.Pipeline.faults.Unicert.Pipeline.fault_errors;
  let code =
    match t.Unicert.Pipeline.faults.Unicert.Pipeline.aborted with
    | Some reason ->
        Printf.eprintf "error: run aborted: %s\n" reason;
        3
    | None ->
        Fault_cli.cleanup_stale_cursors fault ~scale;
        if Unicert.Pipeline.coverage_degraded t then begin
          Printf.eprintf
            "warning: degraded coverage: not every log delivered fully\n";
          4
        end
        else 0
  in
  Fault_cli.exit_via code

(* --- fsck --- *)

let fsck dir repair =
  let r = Store.Db.fsck ~repair ~dir () in
  List.iter
    (fun (i : Store.Db.issue) ->
      Printf.printf "%s: %s: %s%s\n" i.Store.Db.file i.Store.Db.problem
        i.Store.Db.detail
        (if repair then " -> " ^ i.Store.Db.repair
         else Printf.sprintf " (repair would %s)" i.Store.Db.repair))
    r.Store.Db.issues;
  Printf.printf "fsck %s: state=%s, %d/%d span(s) intact, %d issue(s)%s\n" dir
    (match r.Store.Db.store_state with
    | `Complete -> "complete"
    | `Building -> "building"
    | `Absent -> "absent"
    | `Foreign -> "foreign")
    r.Store.Db.spans_ok r.Store.Db.spans_expected
    (List.length r.Store.Db.issues)
    (if r.Store.Db.repaired then ", repaired" else "");
  (* 2: nothing to check, or another version's store (rebuild it);
     0: clean; 4: damaged but usable data remains; 3: nothing
     salvageable. *)
  match r.Store.Db.store_state with
  | `Absent | `Foreign -> Fault_cli.exit_via 2
  | `Complete | `Building ->
      if r.Store.Db.issues = [] then ()
      else if r.Store.Db.usable then Fault_cli.exit_via 4
      else Fault_cli.exit_via 3

(* --- info --- *)

let show_info dir =
  Fault_cli.guard @@ fun () ->
  let db = Store.Db.open_ro ~dir in
  let id = Store.Db.id db in
  let man = Store.Db.manifest db in
  Printf.printf "store %s\n" dir;
  Printf.printf "  identity: scale=%d seed=%d\n" id.Store.Manifest.scale
    id.Store.Manifest.seed;
  Printf.printf "  fingerprint: %s\n" id.Store.Manifest.fingerprint;
  Printf.printf "  state: %s\n"
    (match man.Store.Manifest.state with
    | `Complete -> "complete"
    | `Building -> "building");
  let lints = String.split_on_char ';' man.Store.Manifest.lints in
  Printf.printf "  lints: %d\n"
    (List.length (List.filter (fun l -> l <> "") lints));
  let records =
    List.fold_left
      (fun a (s : Store.Manifest.seg) -> a + s.Store.Manifest.records)
      0 man.Store.Manifest.segments
  in
  Printf.printf "  records: %d in %d span(s)\n" records
    (List.length man.Store.Manifest.segments);
  List.iter
    (fun (s : Store.Manifest.seg) ->
      Printf.printf "    [%d,%d) %s (%d records)\n" s.Store.Manifest.lo
        s.Store.Manifest.hi s.Store.Manifest.file s.Store.Manifest.records)
    man.Store.Manifest.segments;
  Printf.printf "  indexes:%s\n"
    (match man.Store.Manifest.indexes with [] -> " none" | _ -> "");
  List.iter
    (fun (name, file, _sha) -> Printf.printf "    %s -> %s\n" name file)
    man.Store.Manifest.indexes;
  List.iter
    (fun (k, v) ->
      Printf.printf "  meta %s: %s\n" k
        (if String.contains v '\n' || String.length v > 64 then
           Printf.sprintf "<%d bytes>" (String.length v)
         else v))
    man.Store.Manifest.meta

(* --- query --- *)

let query dir name key =
  Fault_cli.guard @@ fun () ->
  let db = Store.Db.open_ro ~dir in
  match Store.Db.load_index db name with
  | Error e ->
      Printf.eprintf "error: index %S: %s\n" name e;
      Fault_cli.exit_via 2
  | Ok entries -> (
      match List.assoc_opt key entries with
      | None | Some [] -> Printf.printf "%s %S: no matching certificates\n" name key
      | Some ids ->
          Printf.printf "%s %S: %d certificate(s): %s\n" name key
            (List.length ids)
            (String.concat " " (List.map string_of_int ids)))

(* --- command line --- *)

let scale =
  Arg.(value & opt int Ctlog.Dataset.default_scale
       & info [ "scale" ] ~doc:"Corpus size")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Corpus seed")

let chaos_rate =
  Arg.(value & opt float 0.0 & info [ "chaos-rate" ] ~docv:"RATE"
       ~doc:"Fault this fraction of store writes (seeded, deterministic): \
             torn writes, short writes, bit flips")

let chaos_seed =
  Arg.(value & opt int 1 & info [ "chaos-seed" ] ~docv:"SEED"
       ~doc:"Chaos plan seed")

let chaos_kinds =
  Arg.(value & opt (some string) None & info [ "chaos-kinds" ] ~docv:"K1,K2"
       ~doc:"Comma-separated chaos kinds (default: all)")

let crash_at =
  Arg.(value & opt_all string [] & info [ "crash-at" ] ~docv:"POINT[:N]"
       ~doc:"Simulate process death at the N-th hit (default 1st) of a \
             declared crash point (repeatable; run $(b,crash-points) for \
             the list)")

let repair =
  Arg.(value & flag & info [ "repair" ]
       ~doc:"Repair what fsck finds: truncate torn tails, quarantine \
             corrupt segments, delete strays, rewrite the manifest to \
             reference only intact files")

let build_cmd =
  let doc = "populate (or resume populating) a store from a corpus pass" in
  Cmd.v (Cmd.info "build" ~doc)
    Term.(const build $ dir_arg $ scale $ seed $ Fault_cli.term $ chaos_rate
          $ chaos_seed $ chaos_kinds $ crash_at $ Fault_cli.metrics
          $ Fault_cli.progress)

let fsck_cmd =
  let doc = "verify every segment, index and the manifest; optionally repair" in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const fsck $ dir_arg $ repair)

let info_cmd =
  let doc = "print store identity, state and inventory" in
  Cmd.v (Cmd.info "info" ~doc) Term.(const show_info $ dir_arg)

let query_cmd =
  let doc = "look up certificates by issuer, lint, flaw class, domain label \
             or U-label" in
  let index_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"INDEX"
         ~doc:"Index name: issuer, lint, flaw, domain, or ulabel")
  in
  let index_key =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"KEY"
         ~doc:"Lookup key (e.g. an issuer org or a domain label)")
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const query $ dir_arg $ index_name $ index_key)

let points_cmd =
  let doc = "list the declared crash points, in build order" in
  Cmd.v (Cmd.info "crash-points" ~doc)
    Term.(const (fun () -> List.iter print_endline Store.Chaos.crash_points)
          $ const ())

let cmd =
  let doc = "manage the crash-safe on-disk certificate store" in
  Cmd.group (Cmd.info "unicert-store" ~doc)
    [ build_cmd; fsck_cmd; info_cmd; query_cmd; points_cmd ]

let () = exit (Cmd.eval cmd)
