(* monitor_live: the continuous CT monitor.  The real unicert_monitord
   binary (--source fetch, -j 1) is driven over stdin in rounds until
   the run's time is up.  Each round starts a fresh daemon on a fresh
   store, ingests the corpus from Spec.logs simulated logs with
   back-to-back ticks, then serves an open loop of Poisson queries from
   the bench_serve battery at Spec.query_rate per second — each query's
   latency runs from its due time, so a stall also counts against the
   queries queued behind it.  After the last round a restarted daemon
   must answer the battery byte-identically. *)

let deadline_s = 60.

(* --- the daemon over pipes --------------------------------------------- *)

type daemon = {
  pid : int;
  inp : Unix.file_descr;
  outp : Unix.file_descr;
  partial : Buffer.t;  (* bytes of the line being read *)
  mutable lines : string list;  (* lines of the frame being read, reversed *)
  frames : (float * string list option) Queue.t;
      (* (arrival time, payload or None for a torn frame) *)
}

let spawn (ctx : Common.ctx) ~dir ~scale =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [ "--store"; dir; "--scale"; string_of_int scale; "--seed"; string_of_int ctx.seed;
      "--source"; "fetch"; "--jobs"; "1"; "--logs"; string_of_int Spec.logs;
      "--publish-per-tick"; string_of_int Spec.publish_per_tick; "--ticks"; "0";
      "--no-progress" ]
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close in_r;
        Unix.close out_w)
      (fun () -> Proc.spawn ~stdin:in_r ~stdout:out_w ctx.daemon args)
  in
  { pid; inp = in_w; outp = out_r; partial = Buffer.create 256; lines = [];
    frames = Queue.create () }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send d line = write_all d.inp (line ^ "\n") 0

(* A frame ends with its "end <sha256-hex>" trailer line. *)
let is_trailer line = String.length line = 68 && String.sub line 0 4 = "end "

let chunk = Bytes.create 65536

(* Read whatever the daemon has written within [timeout] seconds and
   queue the frames it completes. *)
let read_some d ~timeout =
  match Unix.select [ d.outp ] [] [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | [], _, _ -> ()
  | _ ->
      let n = Unix.read d.outp chunk 0 (Bytes.length chunk) in
      if n = 0 then failwith "unicert_monitord closed its stdout";
      let at = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        match Bytes.get chunk i with
        | '\n' ->
            let line = Buffer.contents d.partial in
            Buffer.clear d.partial;
            if is_trailer line then begin
              let body =
                String.concat "" (List.rev_map (fun l -> l ^ "\n") d.lines) ^ line ^ "\n"
              in
              Queue.push (at, Ctlog.Wire.open_ body) d.frames;
              d.lines <- []
            end
            else d.lines <- line :: d.lines
        | c -> Buffer.add_char d.partial c
      done

let next_frame d =
  let stop = Unix.gettimeofday () +. deadline_s in
  while Queue.is_empty d.frames do
    let now = Unix.gettimeofday () in
    if now > stop then failwith "unicert_monitord did not answer in time";
    read_some d ~timeout:(stop -. now)
  done;
  Queue.pop d.frames

(* A closed-loop request: (seconds to the answer, payload). *)
let ask d line =
  let t0 = Unix.gettimeofday () in
  send d line;
  let at, payload = next_frame d in
  (at -. t0, payload)

let quit d =
  let _, bye = ask d "quit" in
  Unix.close d.inp;
  let status = Proc.wait d.pid in
  Unix.close d.outp;
  bye = Some [ "bye" ] && status = Unix.WEXITED 0

let stats_ok ~scale = function
  | Some [ line ] ->
      String.starts_with ~prefix:(Printf.sprintf "stats committed=%d " scale) line
  | _ -> false

(* --- the open-loop query schedule -------------------------------------- *)

type req = {
  line : string;
  due : float;  (* offset from the schedule start *)
  mutable sent : float;
  mutable answered : float;
  mutable payload : string list option;
}

let scale_of (ctx : Common.ctx) =
  Spec.logs * ctx.sizes.Spec.monitor_ticks * Spec.publish_per_tick

let battery = Array.of_list Spec.battery

(* Poisson arrivals at Spec.query_rate for one query window, each a
   battery line drawn from the seed and the round number. *)
let schedule (ctx : Common.ctx) ~round =
  let rng = Random.State.make [| ctx.seed; 0x6d6f6e; round |] in
  let rec queries t acc =
    let t = t -. (log (1. -. Random.State.float rng 1.) /. Spec.query_rate) in
    if t >= ctx.sizes.Spec.query_window then List.rev acc
    else
      let line = battery.(Random.State.int rng (Array.length battery)) in
      queries t ({ line; due = t; sent = 0.; answered = 0.; payload = None } :: acc)
  in
  Array.of_list (queries 0. [])

(* Send every request at its due time and match answers in order;
   returns the generator's largest lateness and backlog. *)
let drive d reqs ~t0 =
  let pending = Queue.create () in
  let next = ref 0 and late = ref 0. and backlog = ref 0 in
  let n = Array.length reqs in
  let stop = t0 +. (if n = 0 then 0. else reqs.(n - 1).due) +. deadline_s in
  while !next < n || not (Queue.is_empty pending) do
    let now = Unix.gettimeofday () in
    if now > stop then failwith "unicert_monitord fell too far behind the schedule";
    while !next < n && t0 +. reqs.(!next).due <= Unix.gettimeofday () do
      let r = reqs.(!next) in
      send d r.line;
      r.sent <- Unix.gettimeofday ();
      late := Float.max !late (r.sent -. (t0 +. r.due));
      Queue.push r pending;
      backlog := max !backlog (Queue.length pending);
      incr next
    done;
    let timeout =
      if !next < n then t0 +. reqs.(!next).due -. Unix.gettimeofday () else deadline_s
    in
    read_some d ~timeout;
    while (not (Queue.is_empty d.frames)) && not (Queue.is_empty pending) do
      let at, payload = Queue.pop d.frames in
      let r = Queue.pop pending in
      r.answered <- at;
      r.payload <- payload
    done
  done;
  (!late, !backlog)

let answered = function
  | Some (first :: _) -> not (String.starts_with ~prefix:"err" first)
  | Some [] -> true
  | None -> false

(* A fresh daemon on [dir]: (seconds from spawn to its first answer,
   daemon). *)
let start (ctx : Common.ctx) out ~dir ~scale ~committed =
  let t0 = Unix.gettimeofday () in
  let d = spawn ctx ~dir ~scale in
  let _, s = ask d "stats" in
  Outcome.check out
    (Printf.sprintf "daemon starts and reports committed=%d" committed)
    (stats_ok ~scale:committed s);
  (Unix.gettimeofday () -. t0, d)

(* Fresh daemon starts per round, the last of which stays up: one start
   ranged 150-270 ms within a run, so a run takes the median of a few
   per round, spread over the run. *)
let starts_per_round = 3

type round = {
  d : daemon;  (* still up *)
  setup : float list;
  ticks : float list;
  busy : float;  (* the ticks and the final commit *)
  lat : (string * float) list;  (* (battery line, latency) *)
  probes : float list;
  late : float;
  backlog : int;
}

(* One round on a fresh store [dir]:
   - set-up: a fresh daemon's start to its first answer, each on an
     empty store;
   - ingest: back-to-back ticks publishing Spec.publish_per_tick
     entries per log, then an explicit commit;
   - query: the open loop above against the committed corpus. *)
let round (ctx : Common.ctx) out ~dir ~scale ~i =
  let fresh () =
    Proc.rm_rf dir;
    start ctx out ~dir ~scale ~committed:0
  in
  let spare =
    List.init (starts_per_round - 1) (fun _ ->
        let dt, d = fresh () in
        Outcome.check out "fresh daemon quits with exit 0" (quit d);
        dt)
  in
  let dt, d = fresh () in
  let setup = dt :: spare in
  let ticks =
    List.init ctx.sizes.Spec.monitor_ticks (fun _ ->
        let dt, p = ask d "tick" in
        Outcome.check out "every tick is answered"
          (match p with Some (first :: _) -> String.starts_with ~prefix:"tick " first | _ -> false);
        dt)
  in
  let commit_s, c = ask d "commit" in
  Outcome.check out "explicit commit lands every entry"
    (c = Some [ Printf.sprintf "committed %d" scale ]);
  let reqs = schedule ctx ~round:i in
  let t0 = Unix.gettimeofday () in
  let late, backlog = drive d reqs ~t0 in
  let lat =
    Array.to_list reqs
    |> List.map (fun r ->
           Outcome.check out "every frame opens and answers its query" (answered r.payload);
           (r.line, r.answered -. (t0 +. r.due)))
  in
  let probes = List.init 20 (fun _ -> ask d "stats") in
  Outcome.check out (Printf.sprintf "stats reports committed=%d" scale)
    (List.for_all (fun (_, s) -> stats_ok ~scale s) probes);
  { d; setup; ticks; busy = List.fold_left ( +. ) commit_s ticks; lat;
    probes = List.map fst probes; late; backlog }

(* Query latency as one battery query costs: the mean over the battery
   lines of each line's median latency.  One "q crtsh example" costs
   about ten times a "stats", so the plain median lands on whichever
   line the seed's mix puts in the middle, and the plain mean follows
   the few host stalls of tens of milliseconds a run happens to catch:
   over ten seeds those spread 42% and 51%, this 10%. *)
let battery_latency_ms lat =
  let per_line =
    List.filter_map
      (fun line ->
        match List.filter_map (fun (l, s) -> if l = line then Some (1000. *. s) else None) lat with
        | [] -> None
        | ms -> Some (Stats.median (Stats.sorted ms)))
      Spec.battery
  in
  List.fold_left ( +. ) 0. per_line /. float_of_int (List.length per_line)

(* Rounds until the run's time is up (at least one); setup_s is the
   median of every round's starts, and the ingest rate is every round's
   entries over every round's busy time, so it spans the whole run
   rather than one burst.  The last round's daemon then quits and a new
   daemon replays its store and must answer the battery
   byte-identically. *)
let measure (ctx : Common.ctx) =
  let out = Outcome.create () in
  let scale = scale_of ctx in
  let dir = Filename.concat ctx.work "mon" in
  let stop = Common.now () +. ctx.seconds in
  let rec rounds i acc =
    let r = round ctx out ~dir ~scale ~i in
    if Common.now () < stop then begin
      Outcome.check out "daemon quits with exit 0" (quit r.d);
      rounds (i + 1) (r :: acc)
    end
    else List.rev (r :: acc)
  in
  let rs = rounds 0 [] in
  let last = List.nth rs (List.length rs - 1) in
  let before = List.map (fun l -> snd (ask last.d l)) Spec.battery in
  let rss = Proc.peak_rss_mb (string_of_int last.d.pid) in
  Outcome.check out "daemon quits with exit 0" (quit last.d);
  let restart_s, d = start ctx out ~dir ~scale ~committed:scale in
  let after = List.map (fun l -> snd (ask d l)) Spec.battery in
  Outcome.check out "battery answers after restart are byte-identical" (after = before);
  Outcome.check out "restarted daemon quits with exit 0" (quit d);
  let sum f = List.fold_left (fun a r -> a +. f r) 0. rs in
  let lat = List.concat_map (fun r -> r.lat) rs in
  Common.e2e out
    ~latency_ms:(battery_latency_ms lat)
    ~setup:(List.concat_map (fun r -> r.setup) rs)
    ~items:(float_of_int (scale * List.length rs))
    ~busy:(sum (fun r -> r.busy))
    ~rates:(List.map (fun r -> float_of_int scale /. r.busy) rs)
    ~latencies:(List.map snd lat)
    ~rss_mb:rss;
  let ms l = Stats.sorted (List.map (fun s -> 1000. *. s) l) in
  let tick_ms = ms (List.concat_map (fun r -> r.ticks) rs) in
  let lat_ms = ms (List.map snd lat) in
  Outcome.detail out "scale" (Json.int scale);
  Outcome.detail out "rounds" (Json.int (List.length rs));
  Outcome.detail out "queries" (Json.int (Array.length lat_ms));
  Outcome.detail out "query_mean_ms"
    (Json.num (Array.fold_left ( +. ) 0. lat_ms /. float_of_int (Array.length lat_ms)));
  Outcome.detail out "query_p50_ms" (Json.num (Stats.median lat_ms));
  Outcome.detail out "query_p99_ms" (Json.num (Stats.percentile lat_ms 99));
  Outcome.detail out "tick_ms_p50" (Json.num (Stats.median tick_ms));
  Outcome.detail out "tick_ms_max" (Json.num tick_ms.(Array.length tick_ms - 1));
  Outcome.detail out "stats_roundtrip_us"
    (Json.num (1e6 *. Stats.median (Stats.sorted (List.concat_map (fun r -> r.probes) rs))));
  Outcome.detail out "restart_s" (Json.num restart_s);
  Outcome.detail out "loadgen_late_ms_max"
    (Json.num (1000. *. List.fold_left (fun a r -> Float.max a r.late) 0. rs));
  Outcome.detail out "loadgen_backlog_max"
    (Json.int (List.fold_left (fun a r -> max a r.backlog) 0 rs));
  out

(* --- the in-process replica for traced runs ---------------------------- *)

type feed_state = {
  feed : Ctlog.Fetch.feed;
  hi : int;
  mutable mark : int;
  mutable next : int;
  mutable pending : (Store.Db.record * string) list;  (* newest first *)
}

(* One daemon lifetime on a fresh store, replicating its loop call for
   call: per tick, publish, poll and stage every log, and commit every
   fourth tick; then answer [queries] battery lines through the framed
   listener.  Returns the committed entry count. *)
let lifetime (ctx : Common.ctx) ~dir ~scale ~queries =
  let seed = ctx.seed in
  Proc.rm_rf dir;
  let cfg = Ctlog.Fetch.default_cfg in
  let lints = Unicert.Pipeline.lints_signature () in
  let fingerprint =
    Unicert.Pipeline.store_fingerprint ~mutator:None ~drop:false
      ~source:(Unicert.Pipeline.Fetch cfg)
  in
  let db = Store.Db.create ~dir ~scale ~seed ~fingerprint in
  Store.Db.recover db ~lints;
  let service = Monitors.Service.create () in
  let listener =
    Net.Listener.create ~seal:Ctlog.Wire.seal (fun ~client:_ line ->
        Monitors.Service.respond service line)
  in
  let feeds =
    Ctlog.Fetch.feeds ~checkpoint:(Filename.concat dir "cursors") ~scale ~seed cfg
    |> List.map (fun feed ->
           let lo, hi = Ctlog.Fetch.feed_range feed in
           { feed; hi; mark = lo; next = lo; pending = [] })
  in
  let acc = Unicert.Pipeline.fresh_acc () in
  let committed = ref 0 and segments = ref [] in
  let output name f = Spans.span ~role:Output name f in
  let stage f item =
    let entry =
      match (item : Ctlog.Fetch.item) with
      | Ctlog.Fetch.Got (index, entry) ->
          let row =
            Spans.span ~role:Analyze "core.pipeline.analyze_entry" (fun () ->
                Unicert.Pipeline.analyze_entry entry ~index)
          in
          output "core.pipeline.add_index_entries" (fun () ->
              Unicert.Pipeline.add_index_entries acc row);
          output "monitors.service.stage_fields" (fun () ->
              Monitors.Service.stage_fields service ~id:index
                ~cns:(Unicert.Pipeline.row_cns row)
                ~sans:(Unicert.Pipeline.row_domains row)
                ~attrs:(Unicert.Pipeline.row_attrs row));
          output "monitors.service.stage_index" (fun () ->
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
                (Unicert.Pipeline.merge_accs [ one ]));
          ( Store.Db.Cert { index; der = entry.Ctlog.Dataset.cert.X509.Certificate.der },
            output "core.pipeline.encode_row" (fun () -> Unicert.Pipeline.encode_row row) )
      | Ctlog.Fetch.Undecodable (index, der, e) ->
          ( Store.Db.Fault
              { index; class_ = Faults.Error.class_name e; detail = Faults.Error.detail e; der },
            "F" )
    in
    f.pending <- entry :: f.pending
  in
  let commit () =
    List.iter
      (fun f ->
        match List.rev f.pending with
        | [] -> ()
        | items ->
            let hi =
              1 + List.fold_left (fun a (r, _) -> max a (Store.Db.index_of_record r)) (f.mark - 1) items
            in
            let pw = output "store.db.start_span" (fun () -> Store.Db.start_span db ~lints ~lo:f.mark ~hi) in
            List.iter
              (fun (r, row) -> output "store.db.append" (fun () -> Store.Db.append pw r ~row))
              items;
            segments := output "store.db.finish_span" (fun () -> Store.Db.finish_span pw) :: !segments;
            f.mark <- hi;
            committed := !committed + List.length items;
            f.pending <- [])
      feeds;
    let pairs =
      List.sort
        (fun ((a : Store.Manifest.seg), _) (b, _) -> compare a.Store.Manifest.lo b.Store.Manifest.lo)
        !segments
    in
    let indexes =
      output "core.pipeline.save_indexes" (fun () ->
          Unicert.Pipeline.save_indexes db (Unicert.Pipeline.merge_accs [ acc ]))
    in
    let state = if List.for_all (fun f -> f.mark >= f.hi) feeds then `Complete else `Building in
    output "store.db.commit" (fun () ->
        Store.Db.commit db
          { Store.Manifest.state; lints; segments = List.map fst pairs;
            rows = List.map snd pairs; indexes; meta = [] });
    output "monitors.service.commit" (fun () -> Monitors.Service.commit service ~upto:!committed)
  in
  let rng = Random.State.make [| seed; 0x6d6f6e |] in
  let per_log = (scale + Spec.logs - 1) / Spec.logs in
  let limit = 4 * ((per_log + Spec.publish_per_tick - 1) / Spec.publish_per_tick) in
  let tick = ref 0 in
  while !tick < limit && not (List.for_all (fun f -> f.next >= f.hi) feeds) do
    incr tick;
    List.iter
      (fun f ->
        Ctlog.Fetch.feed_publish f.feed (Ctlog.Fetch.feed_published f.feed + Spec.publish_per_tick))
      feeds;
    List.iter
      (fun f ->
        let s = Spans.span ~role:Source "ctlog.fetch.poll" (fun () -> Ctlog.Fetch.poll f.feed) in
        let items =
          Spans.span ~role:Decode "ctlog.fetch.items_of_session" (fun () ->
              Ctlog.Fetch.items_of_session s)
        in
        List.iter
          (fun item ->
            let index = Ctlog.Fetch.item_index item in
            if index >= f.next then begin
              stage f item;
              f.next <- index + 1
            end)
          items)
      feeds;
    if !tick mod 4 = 0 then commit ()
  done;
  commit ();
  for seq = 1 to queries do
    let line = battery.(Random.State.int rng (Array.length battery)) in
    ignore
      (output "net.listener.serve" (fun () ->
           Net.Listener.serve listener ~client:"bench" ~seq line))
  done;
  !committed

(* The daemon path is the replica itself: each traced request is one
   lifetime at the workload's corpus size with a tenth of its queries. *)
let trace (ctx : Common.ctx) ~trace_file =
  let out = Outcome.create () in
  let scale = scale_of ctx in
  let dir = Filename.concat ctx.work "replica" in
  let queries = int_of_float (Spec.query_rate *. ctx.seconds /. 10.) in
  let real () =
    Outcome.check out "replica ingest commits every entry"
      (lifetime ctx ~dir ~scale ~queries = scale)
  in
  Common.trace_rounds ctx out ~items:scale ~replica:ignore ~real ~trace_file;
  out
