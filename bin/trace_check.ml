(* @trace-smoke: validate a recorded Chrome trace_event file.

   Checks the schema the Perfetto / chrome://tracing importer relies
   on: a top-level traceEvents array, the required keys per event with
   the right types, a known phase letter, matched and balanced B/E
   pairs per thread track, and per-track monotonic timestamps.  Also
   requires the categories a pipeline-over-fetch run must produce
   ("stage", "net", "fetch"), so a silently empty instrumentation layer
   fails the smoke test rather than shipping blank traces. *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("trace-check: FAIL: " ^ m);
      exit 1)
    fmt

let slurp path =
  let ic = try open_in_bin path with Sys_error m -> fail "%s" m in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let str_member k obj =
  match Obs.Jsonv.member k obj with
  | Some (Obs.Jsonv.Str s) -> s
  | Some _ -> fail "event %s is not a string" k
  | None -> fail "event lacks required key %S" k

let num_member k obj =
  match Obs.Jsonv.member k obj with
  | Some (Obs.Jsonv.Num n) -> n
  | Some _ -> fail "event %s is not a number" k
  | None -> fail "event lacks required key %S" k

let () =
  let path =
    if Array.length Sys.argv <> 2 then fail "usage: trace_check FILE"
    else Sys.argv.(1)
  in
  let doc =
    match Obs.Jsonv.parse (slurp path) with
    | Ok v -> v
    | Error msg -> fail "not valid JSON: %s" msg
  in
  let events =
    match Obs.Jsonv.member "traceEvents" doc with
    | Some (Obs.Jsonv.List l) -> l
    | Some _ -> fail "traceEvents is not an array"
    | None -> fail "no traceEvents key"
  in
  if events = [] then fail "empty trace";
  let stacks : (float, (string * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let last_ts : (float, float) Hashtbl.t = Hashtbl.create 8 in
  let cats = Hashtbl.create 8 in
  List.iteri
    (fun i ev ->
      let name = str_member "name" ev in
      let cat = str_member "cat" ev in
      let ph = str_member "ph" ev in
      let ts = num_member "ts" ev in
      ignore (num_member "pid" ev);
      let tid = num_member "tid" ev in
      Hashtbl.replace cats cat ();
      if ts < 0. then fail "event %d (%s): negative ts" i name;
      (match Hashtbl.find_opt last_ts tid with
      | Some prev when ts < prev ->
          fail "event %d (%s): ts %.3f < %.3f, not monotonic on tid %g" i name
            ts prev tid
      | _ -> Hashtbl.replace last_ts tid ts);
      let stack =
        match Hashtbl.find_opt stacks tid with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.add stacks tid r;
            r
      in
      match ph with
      | "B" -> stack := (name, ts) :: !stack
      | "E" -> (
          match !stack with
          | (_, t0) :: rest ->
              if ts < t0 then
                fail "event %d (%s): E at %.3f before its B at %.3f" i name ts
                  t0;
              stack := rest
          | [] -> fail "event %d (%s): E without a matching B on tid %g" i name tid)
      | "i" -> (
          match Obs.Jsonv.member "s" ev with
          | Some (Obs.Jsonv.Str _) -> ()
          | _ -> fail "event %d (%s): instant lacks a scope \"s\"" i name)
      | other -> fail "event %d (%s): unknown phase %S" i name other)
    events;
  Hashtbl.iter
    (fun tid stack ->
      match !stack with
      | [] -> ()
      | (name, _) :: _ ->
          fail "tid %g: span %S still open at end of trace" tid name)
    stacks;
  List.iter
    (fun cat ->
      if not (Hashtbl.mem cats cat) then
        fail "no %S events: instrumentation layer went silent" cat)
    [ "stage"; "net"; "fetch" ];
  Printf.printf "trace-check: OK (%d events, %d tracks, %d categories)\n"
    (List.length events) (Hashtbl.length stacks) (Hashtbl.length cats)
