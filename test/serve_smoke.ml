(* Monitor-daemon smoke test: spawn the real unicert-monitord binary
   against faulty simulated logs (10% net fault rate) and check the
   serving contract end to end:

   - a scripted query battery (per-profile subject searches incl. the
     Punycode edge cases, direct index lookups, stats) answers with
     well-formed sealed frames and the expected verdicts;
   - responses are byte-identical across --jobs 1/2/4;
   - SIGTERM is a clean shutdown: final manifest commit, exit 0, the
     store passes fsck — and a restarted daemon resumes from its
     cursors and converges to the byte-identical battery responses;
   - kill -9 after a commit and further uncommitted ticks loses only
     the uncommitted tail: after fsck --repair the store holds exactly
     the acknowledged prefix, and a restarted daemon answers the
     battery byte-identically to an independent replay of it;
   - a request line over the 64 KiB cap gets a sealed refusal and the
     daemon keeps serving;
   - the shared fault flags go through the pipeline's fault boundary:
     --quarantine writes one line per committed fault record, the same
     lines unicert_report quarantines from the same corpus;
     --fail-fast and --max-errors abort with exit 3 at the fault that
     spends the budget over the daemon's lifetime (committed faults
     count on restart) and leave a clean store that a restart without
     them completes byte-identically;
     --checkpoint/--resume are refused with exit 2.

   The daemon and report paths arrive as argv(1) and argv(2) from the
   dune rule. *)

let daemon, report_exe =
  if Array.length Sys.argv < 3 then begin
    prerr_endline "usage: serve_smoke DAEMON_EXE REPORT_EXE";
    exit 2
  end
  else (Sys.argv.(1), Sys.argv.(2))

let scale = 600
let seed = 5

let base_args =
  [
    "--scale"; string_of_int scale; "--seed"; string_of_int seed;
    "--source"; "fetch"; "--logs"; "8"; "--net-seed"; "41";
    "--net-fault-rate"; "0.1"; "--publish-per-tick"; "8";
    "--commit-every"; "4"; "--no-progress";
  ]

let failures = ref 0

let checkf ok fmt =
  Printf.ksprintf
    (fun msg ->
      if ok then Printf.printf "ok: %s\n%!" msg
      else begin
        incr failures;
        Printf.printf "FAIL: %s\n%!" msg
      end)
    fmt

(* The battery: subject searches per profile (the Table 6 edge cases),
   index lookups against all five persistent indexes, and stats. *)
let battery =
  [
    "q crtsh example";
    "q crtsh shop.xn--p1ai";
    "q sslmate xn--bcher-kva.com";
    "q facebook shop.xn--q9jyb4c";
    "q entrust xn--bcher-kva.com";
    "q entrust shop.xn--p1ai";
    "q merklemap b\xc3\xbccher";
    "ix issuer COMODO CA Limited";
    "ix ulabel b\xc3\xbccher";
    "ix domain example";
    "ix flaw Invalid Encoding";
    "ix lint e_subject_locality_not_printable_or_utf8";
    "q crtsh EXAMPLE";
    "q merklemap xn--";
    "q facebook xn--bcher-kva.com";
    "stats";
  ]

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

(* The fault runs' corpus: a reliable transport, corrupted entries. *)
let corpus_args =
  [
    "--scale"; string_of_int scale; "--seed"; string_of_int seed;
    "--source"; "fetch"; "--logs"; "8"; "--net-seed"; "41";
    "--net-fault-rate"; "0"; "--corrupt-rate"; "0.1"; "--no-progress";
  ]

let fault_args ~publish ~commit =
  corpus_args @ [ "--publish-per-tick"; publish; "--commit-every"; commit ]

(* Run the daemon over a fresh or existing store with [extra] args,
   write [input] lines to stdin, return (stdout, stderr, exit status). *)
let run_daemon ?(base = base_args) ~dir ~extra ~input () =
  let args =
    Array.of_list ((daemon :: "--store" :: dir :: base) @ extra)
  in
  let out, inp, err =
    Unix.open_process_args_full daemon args (Unix.environment ())
  in
  List.iter (fun l -> output_string inp (l ^ "\n")) input;
  close_out inp;
  let stdout_s = read_all out in
  let stderr_s = read_all err in
  let status = Unix.close_process_full (out, inp, err) in
  (stdout_s, stderr_s, status)

(* Split a concatenated stream of sealed frames on their "end <hex>"
   trailers and validate each seal: payload lines rejoined + trailer
   must round-trip through Ctlog.Wire. *)
let frames_of s =
  let lines = String.split_on_char '\n' s in
  let rec go acc frame = function
    | [] -> List.rev acc
    | line :: rest ->
        if String.length line > 4 && String.sub line 0 4 = "end " then begin
          let body =
            String.concat "" (List.rev_map (fun l -> l ^ "\n") frame)
            ^ line ^ "\n"
          in
          (match Ctlog.Wire.open_ body with
          | Some payload -> go (payload :: acc) [] rest
          | None -> failwith (Printf.sprintf "unsealed frame: %S" body))
        end
        else if line = "" then go acc frame rest
        else go acc (line :: frame) rest
  in
  go [] [] lines

let first_line = function l :: _ -> l | [] -> "(empty frame)"

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Stage one stored row's serving material into [service] the way a
   fresh replay would: subject fields, then the five index families
   merged from the row's own accumulator.  The oracle for the kill -9
   check, independent of the daemon's own replay. *)
let stage_row service row =
  Monitors.Service.stage_fields service
    ~id:(Unicert.Pipeline.row_index row)
    ~cns:(Unicert.Pipeline.row_cns row)
    ~sans:(Unicert.Pipeline.row_domains row)
    ~attrs:(Unicert.Pipeline.row_attrs row);
  let one = Unicert.Pipeline.fresh_acc () in
  Unicert.Pipeline.add_index_entries one row;
  List.iter
    (fun (index, entries) ->
      List.iter
        (fun (key, ids) ->
          List.iter
            (fun id -> Monitors.Service.stage_index service ~index ~key ~id)
            ids)
        entries)
    (Unicert.Pipeline.merge_accs [ one ])

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "unicert-serve-smoke-%s-%d" name (Unix.getpid ()))

let () =
  (* --- 1. battery semantics + byte stability across --jobs --------- *)
  let outputs =
    List.map
      (fun jobs ->
        let dir = tmp (Printf.sprintf "jobs%d" jobs) in
        rm_rf dir;
        let stdout_s, stderr_s, status =
          run_daemon ~dir
            ~extra:[ "--ticks"; "12"; "--jobs"; string_of_int jobs ]
            ~input:(battery @ [ "quit" ])
            ()
        in
        checkf (status = Unix.WEXITED 0) "jobs=%d daemon exits 0 (stderr: %s)"
          jobs (String.trim stderr_s);
        if jobs = 1 then rm_rf dir;  (* jobs=2/4 dirs reused below *)
        (jobs, dir, stdout_s))
      [ 1; 2; 4 ]
  in
  let _, _, ref_out = List.hd outputs in
  List.iter
    (fun (jobs, _, out) ->
      checkf (out = ref_out) "jobs=%d responses byte-identical to jobs=1" jobs)
    (List.tl outputs);
  (* The fetch cursors live beside the store's files, each with its
     append-only journal; fsck must count neither as damage. *)
  let _, jobs2_dir, _ = List.nth outputs 1 in
  checkf
    (Sys.file_exists (Filename.concat jobs2_dir "cursors.fetch0.journal"))
    "the daemon journals its fetch cursors";
  let report = Store.Db.fsck ~dir:jobs2_dir () in
  checkf
    (report.Store.Db.issues = [] && report.Store.Db.usable)
    "fsck is clean on a daemon store with cursor journals (%d issues)"
    (List.length report.Store.Db.issues);
  let frames = frames_of ref_out in
  checkf
    (List.length frames = List.length battery + 1)
    "one sealed frame per query (+bye), got %d" (List.length frames);
  let reply i = first_line (List.nth frames i) in
  let expect i pred what =
    checkf (pred (reply i)) "%S -> %S %s" (List.nth battery i) (reply i) what
  in
  let hits_nonzero r = starts_with "hits " r && not (starts_with "hits 0" r) in
  expect 0 hits_nonzero "fuzzy subject search finds hits";
  expect 1 (starts_with "hits") "crtsh serves Punycode ccIDN queries";
  expect 2 (starts_with "hits") "sslmate accepts a legal A-label";
  expect 3 (starts_with "hits") "facebook serves an IDN-gTLD A-label";
  expect 4 (starts_with "hits")
    "entrust refusal is scoped to ccIDN TLDs (the conflation bugfix)";
  expect 5 (starts_with "refused") "entrust refuses Punycode ccIDN";
  expect 6 (starts_with "refused") "U-label input refused (Table 6)";
  List.iter
    (fun i -> expect i hits_nonzero "index lookup finds hits")
    [ 7; 8; 9; 10; 11 ];
  expect 12 (fun r -> r = reply 0) "crtsh folds the query's case";
  expect 13 hits_nonzero "merklemap finds A-labels by substring";
  expect 14 (starts_with "hits") "facebook serves an exact A-label query";
  expect 15
    (starts_with (Printf.sprintf "stats committed=%d" scale))
    "whole corpus committed";

  (* --- 2. SIGTERM: clean shutdown, then resumable restart ---------- *)
  let dir = tmp "sigterm" in
  rm_rf dir;
  let args =
    Array.of_list
      ((daemon :: "--store" :: dir :: base_args) @ [ "--ticks"; "4" ])
  in
  let out_r, out_w = Unix.pipe () in
  let in_r, in_w = Unix.pipe () in
  let pid = Unix.create_process daemon args in_r out_w Unix.stderr in
  Unix.close out_w;
  Unix.close in_r;
  (* Let the partial ingest (4 of the ~10 ticks needed) land, then ask
     for a graceful stop while the daemon sits in its stdin loop. *)
  Unix.sleepf 2.0;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Unix.close in_w;
  Unix.close out_r;
  checkf (status = Unix.WEXITED 0) "SIGTERM is a clean exit 0";
  let report = Store.Db.fsck ~dir () in
  checkf report.Store.Db.usable "store usable after SIGTERM";
  let db = Store.Db.open_ro ~dir in
  let committed = ref 0 in
  Store.Db.iter_pairs db (fun _ _ -> incr committed);
  checkf
    (!committed > 0 && !committed < scale)
    "shutdown committed a partial prefix (%d of %d)" !committed scale;
  (* Restart over the same store: cursors + committed prefix resume,
     and the finished battery matches the fresh-run bytes. *)
  let stdout_s, stderr_s, status =
    run_daemon ~dir ~extra:[ "--ticks"; "12" ]
      ~input:(battery @ [ "quit" ]) ()
  in
  checkf (status = Unix.WEXITED 0) "restarted daemon exits 0 (stderr: %s)"
    (String.trim stderr_s);
  checkf (stdout_s = ref_out)
    "restart after SIGTERM converges to byte-identical responses";
  rm_rf dir;
  List.iter (fun (_, d, _) -> rm_rf d) (List.tl outputs);

  (* --- 3. kill -9: fsck --repair, then answer from the committed prefix *)
  (* Cut deterministically through the stdin protocol: four ticks (the
     fourth commits), an explicit commit, then three ticks that stage
     rows and journal fetch cursors past it but never commit.  SIGKILL
     lands once the last tick has answered. *)
  let dir = tmp "kill9" in
  rm_rf dir;
  let args =
    Array.of_list
      ((daemon :: "--store" :: dir :: base_args) @ [ "--ticks"; "0" ])
  in
  let out_r, out_w = Unix.pipe () in
  let in_r, in_w = Unix.pipe () in
  let pid = Unix.create_process daemon args in_r out_w Unix.stderr in
  Unix.close out_w;
  Unix.close in_r;
  let script =
    [ "tick"; "tick"; "tick"; "tick"; "commit"; "tick"; "tick"; "tick" ]
  in
  let to_daemon = Unix.out_channel_of_descr in_w in
  List.iter (fun l -> output_string to_daemon (l ^ "\n")) script;
  flush to_daemon;
  let from_daemon = Unix.in_channel_of_descr out_r in
  let replies = Buffer.create 1024 in
  let rec await n =
    n = 0
    ||
    match input_line from_daemon with
    | line ->
        Buffer.add_string replies (line ^ "\n");
        await (if starts_with "end " line then n - 1 else n)
    | exception End_of_file -> false
  in
  let answered = await (List.length script) in
  Unix.kill pid Sys.sigkill;
  let _, status = Unix.waitpid [] pid in
  close_out_noerr to_daemon;
  close_in_noerr from_daemon;
  checkf answered "the daemon answered every scripted line before the kill";
  checkf (status = Unix.WSIGNALED Sys.sigkill) "the daemon died of SIGKILL";
  let acknowledged, staged =
    match List.map first_line (frames_of (Buffer.contents replies)) with
    | [ _; _; _; _; commit; _; _; last ] -> (
        match
          ( Scanf.sscanf_opt commit "committed %d" Fun.id,
            Scanf.sscanf_opt last "tick 7 committed=%d staged=%d" (fun c s ->
                (c, s)) )
        with
        | Some n, Some (c, s) when c = n -> (n, s)
        | _ -> (-1, -1))
    | _ -> (-1, -1)
  in
  checkf
    (acknowledged > 0 && staged > acknowledged)
    "rows were staged past the last commit (committed %d, staged %d)"
    acknowledged staged;
  let report = Store.Db.fsck ~repair:true ~dir () in
  checkf report.Store.Db.usable "store usable after kill -9 + fsck --repair";
  (* Replay exactly the committed contiguous prefix of each log's
     partition into a fresh service, and frame the battery answers the
     way the daemon does. *)
  let db = Store.Db.open_ro ~dir in
  let spans =
    List.map fst (Store.Db.spans db)
    |> List.sort (fun (a : Store.Manifest.seg) b ->
           compare a.Store.Manifest.lo b.Store.Manifest.lo)
  in
  let marks =
    List.map
      (fun (lo, hi) ->
        let mark = ref lo in
        List.iter
          (fun (s : Store.Manifest.seg) ->
            if s.Store.Manifest.lo <= !mark && s.Store.Manifest.hi > !mark
               && s.Store.Manifest.lo < hi then
              mark := min s.Store.Manifest.hi hi)
          spans;
        (lo, hi, !mark))
      (Par.shards ~jobs:8 scale)
  in
  let mark_of index =
    match
      List.find_opt (fun (lo, hi, _) -> index >= lo && index < hi) marks
    with
    | Some (_, _, m) -> m
    | None -> 0
  in
  let service = Monitors.Service.create () in
  let recovered = ref 0 and undecodable = ref 0 in
  Store.Db.iter_pairs db (fun recd rowstr ->
      let index = Store.Db.index_of_record recd in
      if index < mark_of index then begin
        incr recovered;
        match recd with
        | Store.Db.Fault _ -> ()
        | Store.Db.Cert _ -> (
            match Unicert.Pipeline.decode_row rowstr with
            | Error _ -> incr undecodable
            | Ok row -> stage_row service row)
      end);
  Monitors.Service.commit service ~upto:!recovered;
  checkf (!undecodable = 0) "every committed row decodes (%d do not)"
    !undecodable;
  checkf
    (!recovered = acknowledged && !recovered < scale)
    "the store holds exactly the acknowledged partial prefix (%d of %d, \
     acknowledged %d)"
    !recovered scale acknowledged;
  let expected =
    String.concat ""
      (List.map
         (fun line -> Ctlog.Wire.seal (Monitors.Service.respond service line))
         battery)
    ^ Ctlog.Wire.seal [ "bye" ]
  in
  let stdout_s, stderr_s, status =
    run_daemon ~dir ~extra:[ "--ticks"; "0" ] ~input:(battery @ [ "quit" ]) ()
  in
  checkf (status = Unix.WEXITED 0) "daemon restarted after kill -9 exits 0 \
    (stderr: %s)" (String.trim stderr_s);
  checkf (stdout_s = expected)
    "restart after kill -9 answers byte-identically to a replay of the \
     committed prefix";
  rm_rf dir;

  (* --- 4. request lines are capped at 64 KiB ------------------------- *)
  let dir = tmp "longline" in
  rm_rf dir;
  let at_cap = "q crtsh " ^ String.make (65536 - 8) 'a' in
  let stdout_s, stderr_s, status =
    run_daemon ~dir ~extra:[ "--ticks"; "1" ]
      ~input:[ "stats"; String.make 200_000 'x'; at_cap; "stats"; "quit" ]
      ()
  in
  checkf (status = Unix.WEXITED 0) "long-line daemon exits 0 (stderr: %s)"
    (String.trim stderr_s);
  (match List.map first_line (frames_of stdout_s) with
  | [ s1; long; cap; s2; bye ] ->
      checkf (long = "err line too long") "an over-long line is refused: %S" long;
      checkf (cap <> "err line too long") "a line at the cap is served: %S" cap;
      checkf (starts_with "stats " s1 && s1 = s2)
        "the daemon keeps serving after a refused line";
      checkf (bye = "bye") "quit still answers bye"
  | fs -> checkf false "five frames around a long line, got %d" (List.length fs));
  rm_rf dir;

  (* --- 5. the fault contract ----------------------------------------- *)
  let read_lines file =
    if Sys.file_exists file then In_channel.with_open_bin file In_channel.input_lines
    else []
  in
  let quarantine dir = read_lines (Filename.concat dir (Printf.sprintf "quarantine-%d.jsonl" seed)) in
  let dir = tmp "faults" and qdir = tmp "faults-q" and rqdir = tmp "faults-rq" in
  List.iter rm_rf [ dir; qdir; rqdir ];
  let base = fault_args ~publish:"8" ~commit:"4" in
  let fault_out, stderr_s, status =
    run_daemon ~base ~dir ~extra:[ "--ticks"; "12"; "--quarantine"; qdir ]
      ~input:(battery @ [ "quit" ]) ()
  in
  checkf (status = Unix.WEXITED 0) "quarantining daemon exits 0 (stderr: %s)"
    (String.trim stderr_s);
  let faults = ref 0 in
  Store.Db.iter_pairs (Store.Db.open_ro ~dir) (fun recd _ ->
      match recd with Store.Db.Fault _ -> incr faults | Store.Db.Cert _ -> ());
  let lines = quarantine qdir in
  checkf
    (!faults > 0 && List.length lines = !faults)
    "one quarantine line per committed fault record (%d lines, %d records)"
    (List.length lines) !faults;
  let status =
    Unix.system
      (Filename.quote_command report_exe ~stdout:Filename.null
         ([ "summary"; "--quarantine"; rqdir ] @ corpus_args))
  in
  checkf (status = Unix.WEXITED 0) "unicert_report over the same corpus exits 0";
  checkf
    (List.sort compare lines = List.sort compare (quarantine rqdir))
    "the daemon quarantines the lines unicert_report does";
  List.iter rm_rf [ dir; qdir; rqdir ];
  (* One entry per log and a commit per tick, so the budget is spent
     over several ticks, after some commits: the abort comes at the
     budget's last fault over the daemon's lifetime, not a tick's. *)
  List.iter
    (fun (flags, budget) ->
      let name = String.concat " " flags in
      let dir = tmp "abort" in
      List.iter rm_rf [ dir; qdir ];
      let _, stderr_s, status =
        run_daemon ~base:(fault_args ~publish:"1" ~commit:"1") ~dir
          ~extra:([ "--ticks"; "80"; "--quarantine"; qdir ] @ flags)
          ~input:[ "quit" ] ()
      in
      checkf
        (status = Unix.WEXITED 3 && starts_with "error: run aborted: " stderr_s)
        "%s aborts with exit 3 (stderr: %s)" name (String.trim stderr_s);
      checkf
        (List.length (quarantine qdir) = budget)
        "%s aborts at fault %d (%d quarantined)" name budget
        (List.length (quarantine qdir));
      let report = Store.Db.fsck ~dir () in
      checkf
        (report.Store.Db.issues = [] && report.Store.Db.usable)
        "%s leaves a store that fscks clean (%d issues)" name
        (List.length report.Store.Db.issues);
      (* The committed fault records count toward a restart's budget. *)
      let committed = ref 0 in
      Store.Db.iter_pairs (Store.Db.open_ro ~dir) (fun recd _ ->
          match recd with Store.Db.Fault _ -> incr committed | Store.Db.Cert _ -> ());
      rm_rf qdir;
      let _, _, status =
        run_daemon ~base:(fault_args ~publish:"1" ~commit:"1") ~dir
          ~extra:([ "--ticks"; "80"; "--quarantine"; qdir ] @ flags)
          ~input:[ "quit" ] ()
      in
      checkf
        (status = Unix.WEXITED 3
        && List.length (quarantine qdir) = max 1 (budget - !committed))
        "a restart with %s aborts once the budget is spent (%d committed, %d quarantined)"
        name !committed (List.length (quarantine qdir));
      let stdout_s, stderr_s, status =
        run_daemon ~base ~dir ~extra:[ "--ticks"; "12" ] ~input:(battery @ [ "quit" ]) ()
      in
      checkf (status = Unix.WEXITED 0) "restart after %s exits 0 (stderr: %s)" name
        (String.trim stderr_s);
      checkf (stdout_s = fault_out)
        "restart after %s answers byte-identically to an uninterrupted run" name;
      List.iter rm_rf [ dir; qdir ])
    [ ([ "--fail-fast" ], 1); ([ "--max-errors"; "3" ], 3) ];
  let dir = tmp "checkpoint" in
  rm_rf dir;
  let _, stderr_s, status =
    run_daemon ~dir
      ~extra:[ "--ticks"; "1"; "--checkpoint"; Filename.concat dir "ck"; "--resume" ]
      ~input:[ "quit" ] ()
  in
  checkf
    (status = Unix.WEXITED 2 && not (Sys.file_exists dir))
    "--checkpoint/--resume are refused with exit 2 (stderr: %s)" (String.trim stderr_s);
  rm_rf dir;
  (* Both binaries fingerprint the fetch cfg --breaker-threshold built,
     so a daemon store made with a non-default threshold is the store
     unicert_report --store asks for with the same flags. *)
  let dir = tmp "threshold" in
  rm_rf dir;
  let corpus =
    [ "--scale"; "200"; "--seed"; "3"; "--source"; "fetch"; "--logs"; "4";
      "--breaker-threshold"; "7"; "--no-progress" ]
  in
  let _, stderr_s, status =
    run_daemon ~base:corpus ~dir ~extra:[ "--ticks"; "10" ] ~input:[ "quit" ] ()
  in
  checkf (status = Unix.WEXITED 0) "a --breaker-threshold 7 daemon exits 0 (stderr: %s)"
    (String.trim stderr_s);
  let status =
    Unix.system
      (Filename.quote_command report_exe ~stdout:Filename.null
         ([ "summary"; "--store"; dir ] @ corpus))
  in
  checkf (status = Unix.WEXITED 0)
    "unicert_report summary --store reads that store with the same flags";
  rm_rf dir;

  if !failures > 0 then begin
    Printf.printf "serve_smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "serve_smoke: all checks passed"
