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
   it), and runs the newly delivered entries through the pipeline
   driver and its fault boundary ([Pipeline.ingest]): a tick that
   aborts commits nothing more and exits 3.  Every --commit-every
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
  hi : int;
  mutable mark : int;
  mutable next : int;
  mutable pending : (Store.Db.record * string) list;  (* newest first *)
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
    respond_fault_rate client () () =
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
  if fault.Fault_cli.resume || fault.Fault_cli.policy.Faults.Policy.checkpoint_file <> None
  then begin
    prerr_endline "error: --checkpoint/--resume: the store and its cursors are the checkpoint";
    Fault_cli.exit_via 2
  end;
  Fault_cli.guard @@ fun () ->
  let policy = fault.Fault_cli.policy in
  let cfg =
    Option.value fault.Fault_cli.fetch
      ~default:
        { Ctlog.Fetch.default_cfg with
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
  (* Restart: a log's mark ends the contiguous committed prefix of its
     partition; everything below a mark replays into the serving
     state. *)
  let committed =
    List.sort compare
      (List.map
         (fun ((s : Store.Manifest.seg), _) -> (s.Store.Manifest.lo, s.Store.Manifest.hi))
         (Store.Db.spans db))
  in
  let states =
    List.map
      (fun feed ->
        let lo, hi = Ctlog.Fetch.feed_range feed in
        let mark =
          List.fold_left
            (fun m (slo, shi) -> if slo <= m && shi > m && slo < hi then min shi hi else m)
            lo committed
        in
        { feed; hi; mark; next = mark; pending = []; last_cov = None; degraded = false })
      feeds
  in
  (* The log whose partition holds [index]: the partitions ascend. *)
  let owner index = List.find (fun fs -> index < fs.hi) states in
  (* Committed faults count toward the lifetime --max-errors budget. *)
  let n_committed = ref 0 and faults_seen = ref 0 in
  Store.Db.iter_pairs db (fun recd rowstr ->
      let index = Store.Db.index_of_record recd in
      if index < (owner index).mark then begin
        incr n_committed;
        match recd with
        | Store.Db.Fault _ -> incr faults_seen
        | Store.Db.Cert _ ->
            stage_row service !acc (Unicert.Pipeline.stored_row ~index rowstr)
      end);
  Monitors.Service.commit service ~upto:!n_committed;
  let n_replayed = !n_committed in
  (* Replayed rows re-enter the index at the next commit, even when no
     new entry arrives before it. *)
  let replayed = ref (n_replayed > 0) in
  (* Republish at least the trusted STH before the first poll — a
     smaller published head reads as a shrinking tree (split view). *)
  List.iter
    (fun fs ->
      match Ctlog.Fetch.feed_trusted fs.feed with
      | Some n -> Ctlog.Fetch.feed_publish fs.feed n
      | None -> ())
    states;
  let tick_no = ref 0 and staged = ref 0 in
  (* One commit lands every log's staged entries as one span each in a
     single pack, in log order (the partitions ascend), adds the index
     entries staged since the last commit as one delta, and publishes
     both with the manifest. *)
  let do_commit () =
    let spans =
      List.filter_map
        (fun fs ->
          match fs.pending with
          | [] -> None
          | (newest, _) :: _ ->
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
              Some (fs, if all_in then fs.hi else Store.Db.index_of_record newest + 1))
        states
    in
    let fresh =
      if spans = [] then []
      else begin
        let pw = Store.Db.start_pack db ~lints in
        (try
           List.iter
             (fun (fs, hi) ->
               Store.Db.add_span pw ~lo:fs.mark ~hi;
               List.iter
                 (fun (record, row) -> Store.Db.append pw record ~row)
                 (List.rev fs.pending))
             spans
         with e ->
           Store.Db.close_noerr pw;
           raise e);
        let pairs = Store.Db.finish_pack pw in
        List.iter
          (fun (fs, hi) ->
            fs.mark <- hi;
            fs.next <- max fs.next hi;
            n_committed := !n_committed + List.length fs.pending;
            fs.pending <- [])
          spans;
        pairs
      end
    in
    if fresh <> [] || !tick_no = 0 || !replayed then begin
      replayed := false;
      let indexes =
        Unicert.Pipeline.save_indexes db (Unicert.Pipeline.merge_accs [ !acc ])
      in
      acc := Unicert.Pipeline.fresh_acc ();
      let state =
        if List.for_all (fun fs -> fs.mark >= fs.hi) states then `Complete
        else `Building
      in
      Unicert.Pipeline.commit_manifest db ~state ~lints ~indexes
        ~meta:(fun _ -> []) (Store.Db.spans db @ fresh)
    end;
    Monitors.Service.commit service ~upto:!n_committed
  in
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
    (* The new deliveries of every log, in log order: the partitions
       ascend, so the tick's deliveries ascend by index.  They stay
       unparsed until the driver's step reaches them. *)
    let deliveries =
      List.concat
        (List.map2
           (fun fs (s : Ctlog.Fetch.session) ->
             let cov = s.Ctlog.Fetch.s_cov in
             fs.last_cov <- Some cov;
             if
               cov.Ctlog.Fetch.abandoned <> None
               || cov.Ctlog.Fetch.split_view
               || cov.Ctlog.Fetch.page_gaps > 0
             then fs.degraded <- true;
             let ds = Ctlog.Fetch.deliveries ~from:fs.next s in
             List.iter (fun d -> fs.next <- Ctlog.Fetch.delivery_index d + 1) ds;
             ds)
           states sessions)
    in
    (* The budget spans the daemon's lifetime: this tick may absorb
       what the earlier ones left of it. *)
    let budget = policy.Faults.Policy.max_errors in
    let t, landed =
      Unicert.Pipeline.ingest ~scale ~seed ~jobs deliveries
        ~policy:
          { policy with
            Faults.Policy.max_errors = Option.map (fun m -> m - !faults_seen) budget }
    in
    let faults = t.Unicert.Pipeline.faults in
    Option.iter
      (fun reason ->
        (* Without fail-fast only the budget aborts: name all of it. *)
        Printf.eprintf "error: run aborted: %s\n"
          (match budget with
          | Some m when not policy.Faults.Policy.fail_fast ->
              Printf.sprintf "max-errors: %d errors reached the limit" m
          | _ -> reason);
        Fault_cli.exit_via 3)
      faults.Unicert.Pipeline.aborted;
    faults_seen := !faults_seen + faults.Unicert.Pipeline.fault_errors;
    List.iter
      (fun (record, rowstr, row) ->
        Option.iter (stage_row service !acc) row;
        let fs = owner (Store.Db.index_of_record record) in
        fs.pending <- (record, rowstr) :: fs.pending)
      landed;
    staged := !staged + List.length landed;
    let published =
      List.fold_left
        (fun a fs -> a + Ctlog.Fetch.feed_published fs.feed)
        0 states
    in
    Obs.Gauge.set (Lazy.force obs_lag)
      (float_of_int (max 0 (published - n_replayed - !staged)));
    if !tick_no mod commit_every = 0 then do_commit ()
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
          out
            (Ctlog.Wire.seal
               [ Printf.sprintf "tick %d committed=%d staged=%d" !tick_no
                   !n_committed !staged ])
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
      do_tick ()
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

let cmd =
  let doc =
    "continuously monitor simulated CT logs and serve a crt.sh-style query API"
  in
  Cmd.v (Cmd.info "unicert-monitord" ~doc)
    Term.(const run $ scale $ seed $ Fault_cli.term $ ticks
          $ publish_per_tick $ commit_every $ respond_fault_rate $ client
          $ Fault_cli.metrics $ Fault_cli.progress)

let () = exit (Cmd.eval cmd)
