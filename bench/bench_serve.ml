(* Serving benchmark: what does the query API sustain while ingest is
   running, and does a kill -9 lose anything?

   Two phases, both at a scale large enough that the answer is about
   the serving path and not about process startup:

   - throughput: an in-process replica of the daemon's ingest loop
     (long-lived fetch feeds -> lint -> store spans -> periodic
     commits) runs on its own domain while N client domains hammer the
     query battery through the framed listener.  Reported: queries/sec
     while ingest is in flight, and again once the corpus has fully
     landed;
   - crash acceptance: the real unicert-monitord binary is killed with
     SIGKILL mid-ingest; after `fsck --repair`, a restarted daemon's
     battery responses must be byte-identical to a fresh replay of
     exactly the committed prefix.

   Writes BENCH_serve.json (or the path given as the first argument).
   Environment knobs: UNICERT_BENCH_SCALE (default 20000),
   UNICERT_BENCH_CLIENTS (default 4), UNICERT_MONITORD (daemon path;
   defaults to the sibling bin/ executable). *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> default)
  | None -> default

let scale = env_int "UNICERT_BENCH_SCALE" 20000
let clients = env_int "UNICERT_BENCH_CLIENTS" 4
let seed = 1

let daemon_exe =
  match Sys.getenv_opt "UNICERT_MONITORD" with
  | Some p -> p
  | None ->
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../bin/unicert_monitord.exe"

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

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "unicert-bench-serve-%s-%d" name (Unix.getpid ()))

let cfg = Ctlog.Fetch.default_cfg
let lints () = Unicert.Pipeline.lints_signature ()

let fingerprint () =
  Unicert.Pipeline.store_fingerprint ~mutator:None ~drop:false
    ~source:(Unicert.Pipeline.Fetch cfg)

(* Stage one analyzed row's serving material (subject fields + the
   five index families) — the daemon's replay path, replicated so the
   crash check has an independent oracle. *)
let stage_row service row =
  Monitors.Service.stage_fields service
    ~id:(Unicert.Pipeline.row_index row)
    ~cns:(Unicert.Pipeline.row_cns row)
    ~sans:(Unicert.Pipeline.row_domains row)
    ~attrs:(Unicert.Pipeline.row_attrs row);
  let one = Unicert.Pipeline.fresh_acc () in
  Unicert.Pipeline.add_index_entries one row;
  List.iter
    (fun (ix, entries) ->
      List.iter
        (fun (key, ids) ->
          List.iter
            (fun id -> Monitors.Service.stage_index service ~index:ix ~key ~id)
            ids)
        entries)
    (Unicert.Pipeline.merge_accs [ one ])

(* --- phase 1: throughput under concurrent ingest ---------------------- *)

type ingest_feed = {
  feed : Ctlog.Fetch.feed;
  hi : int;
  mutable mark : int;
  mutable next : int;
  mutable pending : (Store.Db.record * string) list;
}

let throughput () =
  let dir = tmp "ingest" in
  rm_rf dir;
  let db = Store.Db.create ~dir ~scale ~seed ~fingerprint:(fingerprint ()) in
  let lints = lints () in
  Store.Db.recover db ~lints;
  let service = Monitors.Service.create () in
  let listener =
    Net.Listener.create ~seal:Ctlog.Wire.seal (fun ~client:_ line ->
        Monitors.Service.respond service line)
  in
  Store.Db.prewarm ();
  Ctlog.Fetch.prewarm ();
  Monitors.Service.prewarm ();
  Net.Listener.prewarm ();
  let feeds =
    Ctlog.Fetch.feeds ~checkpoint:(Filename.concat dir "cursors") ~scale ~seed
      cfg
    |> List.map (fun feed ->
           let lo, hi = Ctlog.Fetch.feed_range feed in
           { feed; hi; mark = lo; next = lo; pending = [] })
  in
  let acc = Unicert.Pipeline.fresh_acc () in
  let committed = ref 0 in
  let segments = ref [] in
  let commit () =
    List.iter
      (fun f ->
        match List.rev f.pending with
        | [] -> ()
        | items ->
            let hi =
              1
              + List.fold_left
                  (fun a (r, _) -> max a (Store.Db.index_of_record r))
                  (f.mark - 1) items
            in
            let pw = Store.Db.start_span db ~lints ~lo:f.mark ~hi in
            List.iter (fun (r, row) -> Store.Db.append pw r ~row) items;
            segments := Store.Db.finish_span pw :: !segments;
            f.mark <- hi;
            committed := !committed + List.length items;
            f.pending <- [])
      feeds;
    let pairs =
      List.sort
        (fun ((a : Store.Manifest.seg), _) (b, _) ->
          compare a.Store.Manifest.lo b.Store.Manifest.lo)
        !segments
    in
    let indexes =
      Unicert.Pipeline.save_indexes db (Unicert.Pipeline.merge_accs [ acc ])
    in
    let state =
      if List.for_all (fun f -> f.mark >= f.hi) feeds then `Complete
      else `Building
    in
    Store.Db.commit db
      {
        Store.Manifest.state;
        lints;
        segments = List.map fst pairs;
        rows = List.map snd pairs;
        indexes;
        meta = [];
      };
    Monitors.Service.commit service ~upto:!committed
  in
  let ingest_done = Atomic.make false in
  let ingest_t0 = Unix.gettimeofday () in
  let ingester =
    Domain.spawn (fun () ->
        let tick = ref 0 in
        while not (List.for_all (fun f -> f.mark >= f.hi) feeds) do
          incr tick;
          List.iter
            (fun f ->
              Ctlog.Fetch.feed_publish f.feed
                (Ctlog.Fetch.feed_published f.feed + 256))
            feeds;
          List.iter
            (fun f ->
              let s = Ctlog.Fetch.poll f.feed in
              List.iter
                (fun item ->
                  let index = Ctlog.Fetch.item_index item in
                  if index >= f.next then begin
                    (match item with
                    | Ctlog.Fetch.Got (index, entry) ->
                        let row = Unicert.Pipeline.analyze_entry entry ~index in
                        Unicert.Pipeline.add_index_entries acc row;
                        stage_row service row;
                        f.pending <-
                          ( Store.Db.Cert
                              {
                                index;
                                der =
                                  entry.Ctlog.Dataset.cert
                                    .X509.Certificate.der;
                              },
                            Unicert.Pipeline.encode_row row )
                          :: f.pending
                    | Ctlog.Fetch.Undecodable (index, der, e) ->
                        f.pending <-
                          ( Store.Db.Fault
                              {
                                index;
                                class_ = Faults.Error.class_name e;
                                detail = Faults.Error.detail e;
                                der;
                              },
                            "F" )
                          :: f.pending);
                    f.next <- index + 1
                  end)
                (Ctlog.Fetch.items_of_session ~from:f.next s))
            feeds;
          if !tick mod 2 = 0 then commit ()
        done;
        commit ();
        Atomic.set ingest_done true)
  in
  let workers =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            let client = Printf.sprintf "bench-%d" c in
            let n = ref 0 in
            let seq = ref 0 in
            while not (Atomic.get ingest_done) do
              List.iter
                (fun line ->
                  incr seq;
                  ignore (Net.Listener.serve listener ~client ~seq:!seq line);
                  incr n)
                battery
            done;
            !n))
  in
  let during = List.fold_left (fun a d -> a + Domain.join d) 0 workers in
  Domain.join ingester;
  let ingest_wall = Unix.gettimeofday () -. ingest_t0 in
  if !committed <> scale then begin
    Printf.eprintf "error: ingest committed %d of %d entries\n" !committed scale;
    exit 1
  end;
  (* Idle throughput over the fully landed corpus: single client,
     timed batches. *)
  let batches = 200 in
  let t0 = Unix.gettimeofday () in
  let seq = ref 0 in
  for _ = 1 to batches do
    List.iter
      (fun line ->
        incr seq;
        ignore (Net.Listener.serve listener ~client:"idle" ~seq:!seq line))
      battery
  done;
  let idle_wall = Unix.gettimeofday () -. t0 in
  rm_rf dir;
  ( float_of_int during /. ingest_wall,
    float_of_int (batches * List.length battery) /. idle_wall,
    ingest_wall )

(* --- phase 2: kill -9 mid-ingest, recover, compare ------------------- *)

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let daemon_args dir extra =
  Array.of_list
    ([ daemon_exe; "--store"; dir; "--scale"; string_of_int scale;
       "--seed"; string_of_int seed; "--source"; "fetch"; "--no-progress";
       "--publish-per-tick"; "256"; "--commit-every"; "2" ]
    @ extra)

let kill_acceptance () =
  let dir = tmp "kill" in
  rm_rf dir;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process daemon_exe
      (daemon_args dir [ "--ticks"; "1000" ])
      null Unix.stdout Unix.stderr
  in
  Unix.close null;
  (* Wait for at least one durable data commit (recover writes an
     empty manifest at startup — that one doesn't count), then pull
     the plug. *)
  let committed_spans () =
    if not (Sys.file_exists (Filename.concat dir Store.Manifest.file)) then 0
    else
      match Store.Db.open_ro ~dir with
      | db -> List.length (Store.Db.spans db)
      | exception Store.Db.Store_error _ -> 0
  in
  let rec wait n =
    if n = 0 then begin
      Unix.kill pid Sys.sigkill;
      prerr_endline "error: daemon produced no data commit to kill";
      exit 1
    end;
    if committed_spans () = 0 then begin
      Unix.sleepf 0.2;
      wait (n - 1)
    end
  in
  wait 600;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  let report = Store.Db.fsck ~repair:true ~dir () in
  if not report.Store.Db.usable then begin
    prerr_endline "error: store unusable after kill -9 + fsck --repair";
    exit 1
  end;
  (* Independent oracle: replay exactly the committed contiguous
     prefix of each log's partition into a fresh service and frame the
     battery answers the way the daemon does. *)
  let db = Store.Db.open_ro ~dir in
  let spans =
    List.map fst (Store.Db.spans db)
    |> List.sort (fun (a : Store.Manifest.seg) b ->
           compare a.Store.Manifest.lo b.Store.Manifest.lo)
  in
  let ranges = Par.shards ~jobs:cfg.Ctlog.Fetch.logs scale in
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
      ranges
  in
  let mark_of index =
    match
      List.find_opt (fun (lo, hi, _) -> index >= lo && index < hi) marks
    with
    | Some (_, _, m) -> m
    | None -> 0
  in
  let service = Monitors.Service.create () in
  let recovered = ref 0 in
  Store.Db.iter_pairs db (fun recd rowstr ->
      let index = Store.Db.index_of_record recd in
      if index < mark_of index then begin
        incr recovered;
        match recd with
        | Store.Db.Fault _ -> ()
        | Store.Db.Cert _ -> (
            match Unicert.Pipeline.decode_row rowstr with
            | Error e ->
                Printf.eprintf "error: committed row %d undecodable: %s\n"
                  index e;
                exit 1
            | Ok row -> stage_row service row)
      end);
  Monitors.Service.commit service ~upto:!recovered;
  if !recovered = 0 || !recovered >= scale then begin
    Printf.eprintf
      "error: kill -9 was not mid-ingest (recovered %d of %d rows)\n"
      !recovered scale;
    exit 1
  end;
  let expected =
    String.concat ""
      (List.map
         (fun line -> Ctlog.Wire.seal (Monitors.Service.respond service line))
         battery)
    ^ Ctlog.Wire.seal [ "bye" ]
  in
  (* The restarted daemon, asked for no new ingest, must answer the
     battery from the recovered prefix byte-identically. *)
  let out, inp, err =
    Unix.open_process_args_full daemon_exe
      (daemon_args dir [ "--ticks"; "0" ])
      (Unix.environment ())
  in
  List.iter (fun l -> output_string inp (l ^ "\n")) (battery @ [ "quit" ]);
  close_out inp;
  let got = read_all out in
  let errs = read_all err in
  let status = Unix.close_process_full (out, inp, err) in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ ->
      Printf.eprintf "error: restarted daemon did not exit 0 (stderr: %s)\n"
        (String.trim errs);
      exit 1);
  if got <> expected then begin
    Printf.eprintf
      "error: recovered responses differ from the committed-prefix replay\n\
       --- daemon ---\n%s--- replay ---\n%s"
      got expected;
    exit 1
  end;
  rm_rf dir;
  !recovered

let () =
  let out =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_serve.json"
  in
  Obs.Progress.set_override (Some false);
  let qps_ingest, qps_idle, ingest_wall = throughput () in
  let recovered = kill_acceptance () in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"monitor daemon: query throughput under concurrent ingest, kill -9 recovery\",\n\
    \  \"scale\": %d,\n\
    \  \"client_domains\": %d,\n\
    \  \"battery_queries\": %d,\n\
    \  \"ingest_wall_seconds\": %.4f,\n\
    \  \"queries_per_sec_under_ingest\": %.1f,\n\
    \  \"queries_per_sec_idle\": %.1f,\n\
    \  \"kill9_recovered_rows\": %d,\n\
    \  \"kill9_responses_byte_identical\": true,\n\
    \  \"note\": \"per-query cost grows with the corpus (fuzzy scans, larger hit lists), so the under-ingest average — taken while the corpus is still filling — can exceed the idle full-corpus rate\"\n\
     }\n"
    scale clients (List.length battery) ingest_wall qps_ingest qps_idle
    recovered;
  close_out oc;
  Printf.printf "wrote %s (%.0f q/s under ingest, %.0f q/s idle, %d rows recovered after kill -9)\n"
    out qps_ingest qps_idle recovered
