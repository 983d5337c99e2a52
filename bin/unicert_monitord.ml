(* unicert-monitord: the continuous CT-monitor daemon (DESIGN.md §13).

   Tails the simulated CT logs through long-lived fetch feeds
   (incremental STH refresh with consistency verification against the
   checkpointed head, per-log breakers, split-view quarantine), lints
   every entry as it arrives through the same engine as the batch
   pipeline, lands cert + analysis rows in the crash-safe store with
   periodic atomic manifest commits, and serves a crt.sh-style query
   API over a framed line protocol on stdin/stdout.

   Tick-driven for determinism: each [tick] command (or each of
   --ticks at startup) advances every log's publish schedule, polls
   every feed (in parallel under --jobs; results are independent of
   it), and stages the newly delivered entries.  Every --commit-every
   ticks the staged material is committed — store manifest first, then
   the query service's read snapshot — so queries always answer from
   exactly the durable prefix.  Killing the process at any point loses
   at most the uncommitted tail: fetch cursors carry the delivered
   history, so a restarted daemon replays the committed rows, reopens
   its feeds at the trusted STH, and re-stages the rest. *)

open Cmdliner

let stop_requested = ref false

(* One log's ingest state between commits.  [mark] is the next corpus
   index not yet durably landed; [next] the next not yet staged. *)
type feed_state = {
  feed : Ctlog.Fetch.feed;
  lo : int;
  hi : int;
  mutable mark : int;
  mutable next : int;
  mutable pending : (Store.Db.record * string) list;  (* newest first *)
  mutable staged_count : int;
  mutable last_cov : Ctlog.Fetch.coverage option;
  mutable degraded : bool;
}

let obs_lag =
  lazy
    (Obs.Registry.gauge
       ~help:"Entries published by the logs but not yet staged by ingest"
       "unicert_ingest_lag_entries")

let obs_ticks =
  lazy
    (Obs.Registry.counter ~help:"Ingest ticks processed"
       "unicert_monitord_ticks_total")

(* Stage one analysis row's service material: its subject fields and
   its index entries, which are derived once and also added to [acc]. *)
let stage_row service acc row =
  let id = Unicert.Pipeline.row_index row in
  Monitors.Service.stage_fields service ~id
    ~cns:(Unicert.Pipeline.row_cns row)
    ~sans:(Unicert.Pipeline.row_domains row)
    ~attrs:(Unicert.Pipeline.row_attrs row);
  Unicert.Pipeline.add_index_entries acc row ~on_entry:(fun ~index ~key ->
      Monitors.Service.stage_index service ~index ~key ~id)

(* Stage one fetched item: analyze (Got) or record the fault
   (Undecodable), queue the durable record, and stage the row's
   service material. *)
let stage_item service acc fs item =
  let record, rowstr =
    match (item : Ctlog.Fetch.item) with
    | Ctlog.Fetch.Got (index, entry) ->
        let row = Unicert.Pipeline.analyze_entry entry ~index in
        stage_row service acc row;
        ( Store.Db.Cert
            { index; der = entry.Ctlog.Dataset.cert.X509.Certificate.der },
          Unicert.Pipeline.encode_row row )
    | Ctlog.Fetch.Undecodable (index, der, error) ->
        ( Store.Db.Fault
            {
              index;
              class_ = Faults.Error.class_name error;
              detail = Faults.Error.detail error;
              der;
            },
          "F" )
  in
  fs.pending <- (record, rowstr) :: fs.pending;
  fs.staged_count <- fs.staged_count + 1

(* --- the select-based stdin reader -------------------------------------

   input_line would restart silently across SIGTERM; polling keeps the
   shutdown latency bounded without threads.  Reads are chunked, and a
   request line is capped at [max_line] bytes: a longer one reads as
   [Too_long] once its newline arrives, and nothing past the cap is
   buffered. *)
let max_line = 65536

type line = Line of string | Too_long

let chunk = Bytes.create 4096
let chunk_pos = ref 0
let chunk_len = ref 0

let read_line_opt () =
  let buf = Buffer.create 64 in
  let too_long = ref false in
  let finish () = Some (if !too_long then Too_long else Line (Buffer.contents buf)) in
  let rec take () =
    if !chunk_pos >= !chunk_len then fill ()
    else begin
      let c = Bytes.get chunk !chunk_pos in
      incr chunk_pos;
      if c = '\n' then finish ()
      else begin
        if Buffer.length buf < max_line then Buffer.add_char buf c
        else too_long := true;
        take ()
      end
    end
  and fill () =
    if !stop_requested then None
    else
      match Unix.select [ Unix.stdin ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
      | [], _, _ -> fill ()
      | _ -> (
          match Unix.read Unix.stdin chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
          | 0 -> if Buffer.length buf > 0 || !too_long then finish () else None
          | n ->
              chunk_pos := 0;
              chunk_len := n;
              take ())
  in
  if !stop_requested then None else take ()

let run scale seed (fault : Fault_cli.t) ticks publish_per_tick commit_every
    respond_fault_rate client metrics progress no_progress =
  if progress then Obs.Progress.set_override (Some true)
  else if no_progress then Obs.Progress.set_override (Some false);
  Fault_cli.set_metrics metrics;
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> stop_requested := true));
  let dir =
    match fault.Fault_cli.store with
    | Some d -> d
    | None ->
        Printf.eprintf "error: --store DIR is required\n";
        Fault_cli.exit_via 2
  in
  if publish_per_tick <= 0 then begin
    Printf.eprintf "error: --publish-per-tick must be >= 1\n";
    Fault_cli.exit_via 2
  end;
  if commit_every <= 0 then begin
    Printf.eprintf "error: --commit-every must be >= 1\n";
    Fault_cli.exit_via 2
  end;
  Fault_cli.guard @@ fun () ->
  let policy = fault.Fault_cli.policy in
  let cfg =
    let base = Option.value fault.Fault_cli.fetch ~default:Ctlog.Fetch.default_cfg in
    { base with
      Ctlog.Fetch.breaker_threshold = policy.Faults.Policy.breaker_threshold }
  in
  let jobs = fault.Fault_cli.jobs in
  let mutator = Fault_cli.mutator ~default_seed:seed fault in
  let drop = fault.Fault_cli.drop in
  let lints = Unicert.Pipeline.lints_signature () in
  let fingerprint =
    Unicert.Pipeline.store_fingerprint ~mutator ~drop
      ~source:(Unicert.Pipeline.Fetch cfg)
  in
  Store.Db.prewarm ();
  Ctlog.Fetch.prewarm ();
  Monitors.Service.prewarm ();
  Net.Listener.prewarm ();
  ignore (Lazy.force obs_lag);
  let db = Store.Db.create ~dir ~scale ~seed ~fingerprint in
  Store.Db.recover db ~lints;
  let service = Monitors.Service.create () in
  (* Index entries staged since the last commit: recovery drops the
     committed deltas, so the first commit after a start also carries
     every replayed row's entries. *)
  let acc = ref (Unicert.Pipeline.fresh_acc ()) in
  (* Cursor files live beside the data; they are not data-shaped, so
     fsck leaves them alone. *)
  let feeds =
    Ctlog.Fetch.feeds ?mutator ~drop ~checkpoint:(Filename.concat dir "cursors")
      ~scale ~seed cfg
  in
  let states =
    List.map
      (fun feed ->
        let lo, hi = Ctlog.Fetch.feed_range feed in
        {
          feed;
          lo;
          hi;
          mark = lo;
          next = lo;
          pending = [];
          staged_count = 0;
          last_cov = None;
          degraded = false;
        })
      feeds
  in
  (* Restart: marks = the contiguous committed prefix of each feed's
     range; everything below a mark replays into the serving state. *)
  let committed_spans =
    List.map fst (Store.Db.spans db)
    |> List.sort (fun (a : Store.Manifest.seg) b ->
           compare a.Store.Manifest.lo b.Store.Manifest.lo)
  in
  List.iter
    (fun fs ->
      List.iter
        (fun (s : Store.Manifest.seg) ->
          if s.Store.Manifest.lo <= fs.mark && s.Store.Manifest.hi > fs.mark
             && s.Store.Manifest.lo < fs.hi then
            fs.mark <- min s.Store.Manifest.hi fs.hi)
        committed_spans;
      fs.next <- fs.mark)
    states;
  let mark_of index =
    match List.find_opt (fun fs -> index >= fs.lo && index < fs.hi) states with
    | Some fs -> fs.mark
    | None -> 0
  in
  let n_committed = ref 0 in
  Store.Db.iter_pairs db (fun recd rowstr ->
      let index = Store.Db.index_of_record recd in
      if index < mark_of index then begin
        incr n_committed;
        match recd with
        | Store.Db.Fault _ -> ()
        | Store.Db.Cert _ -> (
            match Unicert.Pipeline.decode_row rowstr with
            | Error e ->
                raise
                  (Store.Db.Store_error
                     (Printf.sprintf
                        "stored row %d undecodable (%s); run `unicert-store \
                         fsck`"
                        index e))
            | Ok row -> stage_row service !acc row)
      end);
  Monitors.Service.commit service ~upto:!n_committed;
  (* Replayed rows re-enter the index at the next commit, even when no
     new entry arrives before it. *)
  let replayed = ref (!n_committed > 0) in
  (* Republish at least the trusted STH before the first poll — a
     smaller published head reads as a shrinking tree (split view). *)
  List.iter
    (fun fs ->
      match Ctlog.Fetch.feed_trusted fs.feed with
      | Some n -> Ctlog.Fetch.feed_publish fs.feed n
      | None -> ())
    states;
  let manifest_segments = ref (Store.Db.spans db) in
  let tick_no = ref 0 in
  let do_tick () =
    incr tick_no;
    Obs.Counter.inc (Lazy.force obs_ticks);
    List.iter
      (fun fs ->
        Ctlog.Fetch.feed_publish fs.feed
          (Ctlog.Fetch.feed_published fs.feed + publish_per_tick))
      states;
    let sessions =
      Par.run ~jobs
        (List.map (fun fs () -> Ctlog.Fetch.poll fs.feed) states)
    in
    List.iter2
      (fun fs (s : Ctlog.Fetch.session) ->
        let cov = s.Ctlog.Fetch.s_cov in
        fs.last_cov <- Some cov;
        if
          cov.Ctlog.Fetch.abandoned <> None
          || cov.Ctlog.Fetch.split_view
          || cov.Ctlog.Fetch.page_gaps > 0
        then fs.degraded <- true;
        List.iter
          (fun item ->
            let index = Ctlog.Fetch.item_index item in
            if index >= fs.next then begin
              stage_item service !acc fs item;
              fs.next <- index + 1
            end)
          (Ctlog.Fetch.items_of_session ~from:fs.next s))
      states sessions;
    let published =
      List.fold_left
        (fun a fs -> a + Ctlog.Fetch.feed_published fs.feed)
        0 states
    in
    let staged = List.fold_left (fun a fs -> a + fs.staged_count) 0 states in
    Obs.Gauge.set (Lazy.force obs_lag)
      (float_of_int (max 0 (published - staged - !n_committed)))
  in
  (* One commit lands every log's staged entries as one span each in a
     single pack, in log order (the partitions ascend), adds the index
     entries staged since the last commit as one delta, and publishes
     both with the manifest. *)
  let do_commit () =
    let spans =
      List.filter_map
        (fun fs ->
          match List.rev fs.pending with
          | [] -> None
          | items ->
              let last =
                List.fold_left
                  (fun a (r, _) -> max a (Store.Db.index_of_record r))
                  (fs.mark - 1) items
              in
              (* When this log has delivered (or quarantined) its whole
                 partition, the span runs to the partition end so
                 dropped tail indices read as covered holes. *)
              let all_in =
                match fs.last_cov with
                | Some c ->
                    c.Ctlog.Fetch.delivered + c.Ctlog.Fetch.quarantined
                    >= c.Ctlog.Fetch.expected
                    && Ctlog.Fetch.feed_published fs.feed
                       >= Ctlog.Fetch.feed_goal fs.feed
                | None -> false
              in
              Some (fs, items, if all_in then fs.hi else last + 1))
        states
    in
    let fresh =
      if spans = [] then []
      else begin
        let pw = Store.Db.start_pack db ~lints in
        (match
           List.iter
             (fun (fs, items, hi) ->
               Store.Db.add_span pw ~lo:fs.mark ~hi;
               List.iter (fun (record, row) -> Store.Db.append pw record ~row) items)
             spans
         with
        | () -> ()
        | exception e ->
            Store.Db.close_noerr pw;
            raise e);
        let pairs = Store.Db.finish_pack pw in
        List.iter
          (fun (fs, items, hi) ->
            fs.mark <- hi;
            fs.next <- max fs.next hi;
            n_committed := !n_committed + List.length items;
            fs.pending <- [])
          spans;
        pairs
      end
    in
    if fresh <> [] || !tick_no = 0 || !replayed then begin
      replayed := false;
      let pairs =
        List.sort
          (fun ((a : Store.Manifest.seg), _) (b, _) ->
            compare a.Store.Manifest.lo b.Store.Manifest.lo)
          (!manifest_segments @ fresh)
      in
      manifest_segments := pairs;
      let indexes =
        Unicert.Pipeline.save_indexes db (Unicert.Pipeline.merge_accs [ !acc ])
      in
      acc := Unicert.Pipeline.fresh_acc ();
      let state =
        if List.for_all (fun fs -> fs.mark >= fs.hi) states then `Complete
        else `Building
      in
      let man : Store.Manifest.t =
        {
          state;
          lints;
          segments = List.map fst pairs;
          rows = List.map snd pairs;
          indexes;
          meta = [];
        }
      in
      Store.Db.commit db man
    end;
    Monitors.Service.commit service ~upto:!n_committed
  in
  let respond_plan =
    if respond_fault_rate <= 0.0 then None
    else
      Some
        {
          Net.Fault.default_plan with
          Net.Fault.seed =
            (match cfg.Ctlog.Fetch.net_seed with
            | Some s -> s lxor 0x51
            | None -> seed lxor 0x51);
          rate = respond_fault_rate;
          kinds = [ Net.Fault.Truncate; Net.Fault.Corrupt_body; Net.Fault.Reset ];
        }
  in
  let listener =
    Net.Listener.create ?plan:respond_plan ~seal:Ctlog.Wire.seal
      (fun ~client:_ line -> Monitors.Service.respond service line)
  in
  let out body =
    print_string body;
    flush stdout
  in
  let seq = ref 0 in
  let handle line =
    let line = String.trim line in
    if line = "" then ()
    else
      match line with
      | "tick" ->
          do_tick ();
          if !tick_no mod commit_every = 0 then do_commit ();
          out
            (Ctlog.Wire.seal
               [ Printf.sprintf "tick %d committed=%d staged=%d" !tick_no
                   !n_committed
                   (List.fold_left (fun a fs -> a + fs.staged_count) 0 states)
               ])
      | "commit" ->
          do_commit ();
          out (Ctlog.Wire.seal [ Printf.sprintf "committed %d" !n_committed ])
      | _ ->
          (* Query lines go through the listener: sealed framing plus
             the (optional) seeded response-fault plan — clients
             validate the seal and retry. *)
          incr seq;
          out (Net.Listener.serve listener ~client ~seq:!seq line)
  in
  for _ = 1 to ticks do
    if not !stop_requested then begin
      do_tick ();
      if !tick_no mod commit_every = 0 then do_commit ()
    end
  done;
  let rec serve_loop () =
    if !stop_requested then ()
    else
      match read_line_opt () with
      | None -> ()
      | Some (Line line) when String.trim line = "quit" ->
          out (Ctlog.Wire.seal [ "bye" ])
      | Some (Line line) ->
          handle line;
          serve_loop ()
      | Some Too_long ->
          out (Ctlog.Wire.seal [ "err line too long" ]);
          serve_loop ()
  in
  serve_loop ();
  (* Graceful shutdown: land and commit everything staged, then exit 0
     — degraded coverage (abandoned log, split view, page gaps) exits
     4; being merely mid-ingest does not. *)
  do_commit ();
  let degraded = List.exists (fun fs -> fs.degraded) states in
  if degraded then
    Printf.eprintf "warning: degraded coverage: not every log delivered fully\n";
  Fault_cli.exit_via (if degraded then 4 else 0)

let scale =
  Arg.(value & opt int Ctlog.Dataset.default_scale
       & info [ "scale" ] ~doc:"Corpus size across all logs")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Corpus seed")

let ticks =
  Arg.(value & opt int 0 & info [ "ticks" ] ~docv:"N"
       ~doc:"Run N ingest ticks at startup before serving stdin")

let publish_per_tick =
  Arg.(value & opt int 64 & info [ "publish-per-tick" ] ~docv:"N"
       ~doc:"Entries each log publishes per tick")

let commit_every =
  Arg.(value & opt int 4 & info [ "commit-every" ] ~docv:"N"
       ~doc:"Commit the store manifest and the read snapshot every N ticks")

let respond_fault_rate =
  Arg.(value & opt float 0.0 & info [ "respond-fault-rate" ] ~docv:"RATE"
       ~doc:"Mangle this fraction of query responses (seeded, \
             deterministic): truncation, bit flips, drops")

let client =
  Arg.(value & opt string "cli" & info [ "client" ] ~docv:"NAME"
       ~doc:"Client name keying the response-fault stream")

let metrics =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Write collected telemetry at exit: Prometheus text, or JSON \
             when FILE ends in .json")

let progress =
  Arg.(value & flag & info [ "progress" ] ~doc:"Force progress reporting on")

let no_progress =
  Arg.(value & flag & info [ "no-progress" ] ~doc:"Force progress reporting off")

let cmd =
  let doc =
    "continuously monitor simulated CT logs and serve a crt.sh-style query API"
  in
  Cmd.v (Cmd.info "unicert-monitord" ~doc)
    Term.(const run $ scale $ seed $ Fault_cli.term $ ticks
          $ publish_per_tick $ commit_every $ respond_fault_rate $ client
          $ metrics $ progress $ no_progress)

let () = exit (Cmd.eval cmd)
