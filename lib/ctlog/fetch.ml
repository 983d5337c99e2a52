(* Resumable paged CT-log fetch over the simulated transport.

   One session per log: trust-on-first-use STH, then every refreshed STH
   is verified against the previously trusted one — equal sizes must
   have equal roots, growth must come with a consistency proof that
   passes [Merkle.verify_consistency].  Entries are buffered unverified
   ([pend]) and only delivered once the window closes and the running
   leaf tree reproduces the verified STH root; a split view quarantines
   the whole unverified range as [Faults.Error.Integrity] and abandons
   the log.  Request failures skip the page (a coverage gap) and feed
   the per-log circuit breaker: past a trip budget the log is abandoned
   and the run reports degraded coverage instead of aborting.

   Everything is deterministic: per-log virtual clock, pure fault
   sampling, and a journaled cursor checkpoint ([FILE.fetch<k>] plus
   [FILE.fetch<k>.journal]) holding what a resumed session needs
   (trusted STH, running leaf hashes, pending window, deliveries so
   far), so a resumed run produces byte-identical results to an
   uninterrupted one.  A long-lived feed reads its cursor
   file once and then carries the last saved cursor, with its tree,
   in memory from poll to poll, without the DER it has handed over. *)

type cfg = {
  logs : int;
  net_seed : int option;  (* fault-plan seed; default derives from corpus seed *)
  fault_rate : float;
  fault_kinds : Net.Fault.kind list;
  flap_rate : float;
  down : string list;             (* permanently dead logs *)
  page_cap : int;                 (* server page size, and the skip unit *)
  policy : Net.Policy.t;
  rate_per_sec : float;           (* token bucket rate *)
  burst : float;
  sth_every : int;                (* pages between mid-window STH tripwires *)
  breaker_threshold : int;
  breaker_cooldown : float;       (* virtual seconds before a half-open probe *)
  max_trips : int;                (* breaker trips before the log is abandoned *)
  equivocate : (string * int * int) list;
      (* (log name, at_request, leaf to flip) — test/chaos hook *)
}

let default_cfg =
  {
    logs = 16;
    net_seed = None;
    fault_rate = 0.0;
    fault_kinds = Net.Fault.all_kinds;
    flap_rate = 0.0;
    down = [];
    page_cap = Server.default_page_cap;
    policy = Net.Policy.default;
    rate_per_sec = 200.0;
    burst = 20.0;
    sth_every = 8;
    breaker_threshold = Faults.Breaker.default_threshold;
    breaker_cooldown = 30.0;
    max_trips = 3;
    equivocate = [];
  }

let log_name k = Printf.sprintf "log-%02d" k

type item =
  | Got of int * Dataset.entry                   (* corpus index, entry *)
  | Undecodable of int * string * Faults.Error.t (* corpus index, DER, error *)

let item_index = function Got (i, _) -> i | Undecodable (i, _, _) -> i

type coverage = {
  log : string;
  expected : int;      (* entries this log held *)
  delivered : int;     (* fetched, verified and decoded *)
  quarantined : int;   (* fetched but undecodable or integrity-flagged *)
  spans : (int * int) list;  (* inclusive corpus-index ranges covered *)
  page_gaps : int;     (* pages skipped after request failure *)
  abandoned : string option;
  split_view : bool;
  requests : int;
  retries : int;
}

let coverage_complete c =
  c.abandoned = None && not c.split_view && c.page_gaps = 0
  && c.delivered + c.quarantined >= c.expected

(* --- cursor: the checkpointed session state -----------------------------

   A cursor is journaled ([Faults.Checkpoint.save_journaled]).  The
   header [FILE.fetch<k>] holds the session's scalars; the journal
   [FILE.fetch<k>.journal] holds its history as events, each fetched
   row once.  Replaying the events the header vouches for rebuilds the
   running leaf tree, the pending window and the delivered and
   quarantined lists, so a save writes only what happened since the
   previous one. *)

type cursor = {
  c_log : string;
  c_next : int;                        (* next tree index to fetch *)
  c_verified : (int * string) option;  (* trusted STH: size, root *)
  c_tree_ok : bool;                    (* false once a page gap broke it *)
  c_refresh : int;                     (* STH refreshes so far (fault keying) *)
  c_gaps : int;
  c_requests : int;
  c_retries : int;
}

(* A fetched entry.  [ci] is its corpus index, or -1 for an entry the
   analysis skips (a precertificate, a dropped index); [leaf] is the
   leaf hash appended to the running tree, or "" once a gap broke
   it. *)
type row = { ti : int; ci : int; der : string; leaf : string }

type event =
  | Row of row
  | Flushed of int       (* pending rows below this tree size were delivered *)
  | Quarantined of string  (* every pending row was quarantined, for this reason *)

(* What the events replay to.  Rows are delivered or quarantined in
   tree order, so [raw] and [quar] each descend by corpus index.  They
   hold only what the next hand-over ({!hand_over}) gives the caller:
   after it, the history keeps counts, coverage spans, the running tree
   and the pending window, never DER already handed over. *)
type history = {
  tree : Merkle.t;  (* running leaf tree *)
  mutable pend : row list;  (* fetched, not yet verified; newest first *)
  mutable raw : (int * string) list;
      (* delivered since the last hand-over: corpus idx, DER; newest first *)
  mutable quar : (int * string * Faults.Error.t) list;
      (* quarantined since the last hand-over; newest first *)
  mutable n_raw : int;  (* delivered in all *)
  mutable n_quar : int;  (* quarantined in all *)
  mutable spans : (int * int) list;
      (* coverage spans over everything handed over, newest first *)
}

let apply ~name h = function
  | Row r ->
      if r.leaf <> "" then ignore (Merkle.append_hash h.tree r.leaf);
      h.pend <- r :: h.pend
  | Flushed n ->
      let deliver, keep = List.partition (fun r -> r.ti < n) (List.rev h.pend) in
      List.iter
        (fun r ->
          if r.ci >= 0 then begin
            h.raw <- (r.ci, r.der) :: h.raw;
            h.n_raw <- h.n_raw + 1
          end)
        deliver;
      h.pend <- List.rev keep
  | Quarantined reason ->
      let e = Faults.Error.Integrity { log = name; detail = reason } in
      List.iter
        (fun r ->
          if r.ci >= 0 then begin
            h.quar <- (r.ci, r.der, e) :: h.quar;
            h.n_quar <- h.n_quar + 1
          end)
        (List.rev h.pend);
      h.pend <- []

(* Coalesce ascending corpus indices onto [spans] (newest first),
   treating indices adjacent in [present] (this log's delivery order)
   as contiguous: a dropped index between them is not a coverage
   gap. *)
let coalesce ~adjacency spans covered =
  List.fold_left
    (fun acc ci ->
      match acc with
      | (lo, hi) :: rest when Hashtbl.find_opt adjacency ci = Some hi -> (lo, ci) :: rest
      | _ -> (ci, ci) :: acc)
    spans covered

(* Hand the deliveries and quarantines since the last hand-over to the
   caller, extending [h.spans] by their indices alone: they all follow
   the entries already covered.  Should an entry ever arrive out of
   order, the spans are rebuilt from the indices they cover — a span
   covers exactly the [present] indices between its ends, so no index
   list need be kept. *)
let hand_over ~present ~adjacency h =
  let raw = h.raw and quar = h.quar in
  let fresh =
    List.merge compare
      (List.rev_map fst raw)
      (List.rev_map (fun (i, _, _) -> i) quar)
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  let covered = match h.spans with (_, hi) :: _ -> [ hi ] | [] -> [] in
  h.spans <-
    (if ascending (covered @ fresh) then coalesce ~adjacency h.spans fresh
     else
       let spans = h.spans in
       let old =
         Array.fold_right
           (fun ci acc ->
             if ci >= 0 && List.exists (fun (lo, hi) -> lo <= ci && ci <= hi) spans
             then ci :: acc
             else acc)
           present []
       in
       coalesce ~adjacency [] (List.sort_uniq compare (old @ fresh)));
  h.raw <- [];
  h.quar <- [];
  (raw, quar)

let fresh_cursor name =
  {
    c_log = name;
    c_next = 0;
    c_verified = None;
    c_tree_ok = true;
    c_refresh = 0;
    c_gaps = 0;
    c_requests = 0;
    c_retries = 0;
  }

let cursor_file base k = base ^ ".fetch" ^ string_of_int k

(* Where a session starts: the last saved cursor, the journal prefix
   its header names, and the history that prefix replays to. *)
type start = {
  cursor : cursor;
  journal : Faults.Checkpoint.mark;
  hist : history;
}

let fresh_start name =
  {
    cursor = fresh_cursor name;
    journal = Faults.Checkpoint.empty_mark;
    hist =
      { tree = Merkle.create (); pend = []; raw = []; quar = []; n_raw = 0;
        n_quar = 0; spans = [] };
  }

(* The cursor saved in [file] for this log and corpus, replayed; a
   fresh start when there is none. *)
let load_start ~file ~scale ~seed ~name =
  match
    (Faults.Checkpoint.load_journaled file
      : (cursor Faults.Checkpoint.t * _ * event list) option)
  with
  | Some (c, journal, events)
    when c.Faults.Checkpoint.scale = scale
         && c.Faults.Checkpoint.seed = seed
         && c.Faults.Checkpoint.state.c_log = name ->
      let start = { (fresh_start name) with cursor = c.Faults.Checkpoint.state; journal } in
      List.iter (apply ~name start.hist) events;
      start
  | _ -> fresh_start name

(* --- telemetry --------------------------------------------------------- *)

let obs_pages =
  lazy
    (Obs.Registry.counter ~help:"get-entries pages fetched successfully"
       "unicert_fetch_pages_total")

let obs_entries =
  lazy
    (Obs.Registry.labeled_counter ~label:"log"
       ~help:"Log entries delivered by the fetch client"
       "unicert_fetch_entries_total")

let obs_sth =
  lazy
    (Obs.Registry.counter ~help:"STHs fetched and verified against the previous checkpoint"
       "unicert_fetch_sth_verified_total")

let obs_split =
  lazy
    (Obs.Registry.labeled_counter ~label:"log"
       ~help:"Split views detected (STH consistency or leaf-root mismatch)"
       "unicert_fetch_split_views_total")

let obs_abandoned =
  lazy
    (Obs.Registry.labeled_counter ~label:"log"
       ~help:"Logs abandoned before full coverage"
       "unicert_fetch_abandoned_total")

let obs_gaps =
  lazy
    (Obs.Registry.counter ~help:"Pages skipped after exhausting their retry budget"
       "unicert_fetch_page_gaps_total")

let prewarm () =
  Net.Transport.prewarm ();
  Net.Client.prewarm ();
  Faults.Breaker.prewarm ();
  Faults.Error.prewarm ();
  Dataset.prewarm ();
  ignore (Lazy.force obs_pages);
  ignore (Lazy.force obs_entries);
  ignore (Lazy.force obs_sth);
  ignore (Lazy.force obs_split);
  ignore (Lazy.force obs_abandoned);
  ignore (Lazy.force obs_gaps)

(* --- body parsing ------------------------------------------------------ *)

let parse_sth lines =
  match lines with
  | [ l ] -> (
      match String.split_on_char ' ' l with
      | [ "sth"; n; root ] -> (
          match (int_of_string_opt n, Wire.of_hex root) with
          | Some n, Some root when n >= 0 -> Some (n, root)
          | _ -> None)
      | _ -> None)
  | _ -> None

let parse_consistency lines =
  match lines with
  | header :: hashes -> (
      match String.split_on_char ' ' header with
      | [ "consistency"; _; _; k ] when int_of_string_opt k = Some (List.length hashes)
        ->
          let decoded = List.filter_map Wire.of_hex hashes in
          if List.length decoded = List.length hashes then Some decoded else None
      | _ -> None)
  | [] -> None

(* A row is [0 ] or [1 ] (the precertificate flag) and the DER in hex,
   decoded in place from offset 2. *)
let parse_entries lines =
  match lines with
  | header :: rows -> (
      match String.split_on_char ' ' header with
      | [ "entries"; start; count ]
        when int_of_string_opt count = Some (List.length rows) -> (
          match int_of_string_opt start with
          | Some start when start >= 0 ->
              let decoded =
                List.filter_map
                  (fun row ->
                    if String.length row < 2 || row.[1] <> ' ' then None
                    else
                      match row.[0] with
                      | ('0' | '1') as flag ->
                          Option.map
                            (fun d -> (flag = '1', d))
                            (Ucrypto.Hex.decode_from row ~pos:2)
                      | _ -> None)
                  rows
              in
              if List.length decoded = List.length rows then Some (start, decoded)
              else None
          | _ -> None)
      | _ -> None)
  | [] -> None

(* --- one log session --------------------------------------------------- *)

(* What one session hands over: the deliveries and quarantines since
   the feed's previous session, newest first (descending corpus index),
   and the cumulative coverage. *)
type session = {
  s_raw : (int * string) list;
  s_quar : (int * string * Faults.Error.t) list;
  s_cov : coverage;
}

exception Stop of string     (* abandon this log *)
exception Interrupted        (* stop_after_pages test hook *)
exception Bad_page           (* one failed/malformed page *)

(* Each mapped corpus index of [present] to the one mapped before it in
   delivery order: what [run_session] needs to tell a dropped index (no
   coverage gap) from a missing one. *)
let adjacency_of present =
  let adjacency = Hashtbl.create (Array.length present) in
  let last = ref (-1) in
  Array.iter
    (fun ci ->
      if ci >= 0 then begin
        if !last >= 0 then Hashtbl.replace adjacency ci !last;
        last := ci
      end)
    present;
  adjacency

(* [present.(tree_index)] is the corpus index an entry maps to, or -1
   for entries (precertificates) the analysis must skip, and
   [adjacency] is [adjacency_of present].  [expected] is the number of
   mapped entries.  Returns the session and where the
   next one starts: the last cursor saved (or [start]'s, when none was)
   with the same running tree — every page appended to the tree is
   followed by a save, so the two always agree. *)
let run_session ?ckpt_file ?stop_after_pages ~(start : start) ~cfg ~scale ~seed
    ~name ~(present : int array) ~adjacency ~transport ~bucket () =
  (* The whole per-log session is one trace slice on the worker
     domain's track; page fetches, STH refreshes and consistency
     checks nest inside it, with quarantine/breaker events as instant
     marks. *)
  Obs.Trace.span ~cat:"fetch" ~args:[ ("log", Obs.Trace.Str name) ] "session"
  @@ fun () ->
  let policy = cfg.policy in
  let clock = Net.Transport.clock transport in
  let expected = Array.fold_left (fun n i -> if i >= 0 then n + 1 else n) 0 present in
  let breaker =
    Faults.Breaker.create ~threshold:cfg.breaker_threshold
      ~cooldown:cfg.breaker_cooldown ("fetch:" ^ name)
  in
  let cur = start.cursor in
  let next = ref cur.c_next in
  let verified = ref cur.c_verified in
  let hist = start.hist in
  let tree = hist.tree in
  let tree_ok = ref cur.c_tree_ok in
  let refresh = ref cur.c_refresh in
  let gaps = ref cur.c_gaps in
  let requests = ref cur.c_requests in
  let retries = ref cur.c_retries in
  let split = ref false in
  let abandoned = ref None in
  let pages_this_session = ref 0 in
  let saved = ref cur in
  let journal = ref start.journal in
  (* Events since the last save, newest first (kept only when there is
     a file to journal them to). *)
  let unsaved = ref [] in
  let record ev =
    apply ~name hist ev;
    if ckpt_file <> None then unsaved := ev :: !unsaved
  in
  let save_ckpt () =
    saved :=
      {
        c_log = name;
        c_next = !next;
        c_verified = !verified;
        c_tree_ok = !tree_ok;
        c_refresh = !refresh;
        c_gaps = !gaps;
        c_requests = !requests;
        c_retries = !retries;
      };
    Option.iter
      (fun file ->
        journal :=
          Faults.Checkpoint.save_journaled file
            { Faults.Checkpoint.scale; seed; next_index = !next; state = !saved }
            ~journal:!journal (List.rev !unsaved);
        unsaved := [])
      ckpt_file
  in
  let now () = Net.Clock.now clock in
  let attempts_of_error = function
    | Net.Client.Attempts_exhausted { attempts; _ }
    | Net.Client.Budget_exhausted { attempts; _ } ->
        attempts
  in
  (* One client request behind the breaker.  An open breaker waits out
     its cooldown on the virtual clock, then probes; past [max_trips]
     the log is abandoned. *)
  let call ?(hedge = false) ~endpoint ~page () =
    if not (Faults.Breaker.allow ~now:(now ()) breaker) then begin
      (match Faults.Breaker.cooldown_until breaker with
      | Some t -> Net.Clock.advance_to clock t
      | None -> ());
      ignore (Faults.Breaker.allow ~now:(now ()) breaker)
    end;
    match
      Net.Client.request ~policy ~bucket ~hedge ~open_:Wire.open_ ~transport
        ~log:name ~endpoint ~page ()
    with
    | Ok f ->
        incr requests;
        retries := !retries + f.Net.Client.attempts - 1;
        Faults.Breaker.success breaker;
        Some f.Net.Client.body
    | Error e ->
        incr requests;
        retries := !retries + attempts_of_error e - 1;
        Faults.Breaker.failure ~now:(now ()) breaker;
        if Faults.Breaker.trips breaker >= cfg.max_trips then begin
          if Obs.Trace.enabled () then
            Obs.Trace.instant ~cat:"fetch"
              ~args:
                [ ("log", Obs.Trace.Str name);
                  ("trips", Obs.Trace.Int (Faults.Breaker.trips breaker)) ]
              "breaker-trip";
          raise
            (Stop
               (Printf.sprintf "breaker open after %d trips (%s)"
                  (Faults.Breaker.trips breaker)
                  (Net.Client.describe e)))
        end;
        None
  in
  (* Split view (or any unverifiable window): the unverified range goes
     to quarantine as Integrity and the log is abandoned. *)
  let quarantine_pending reason =
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~cat:"fetch"
        ~args:[ ("log", Obs.Trace.Str name); ("reason", Obs.Trace.Str reason) ]
        "quarantine";
    split := true;
    Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_split) name);
    if hist.pend <> [] then record (Quarantined reason);
    raise (Stop reason)
  in
  let get_sth () =
    Obs.Trace.span ~cat:"fetch" "sth-refresh" @@ fun () ->
    let rec go () =
      incr refresh;
      match call ~endpoint:"get-sth" ~page:!refresh () with
      | Some lines -> (
          match parse_sth lines with
          | Some sth -> sth
          | None ->
              Faults.Breaker.failure ~now:(now ()) breaker;
              if Faults.Breaker.trips breaker >= cfg.max_trips then
                raise (Stop "breaker open (malformed STH)");
              go ())
      | None -> go ()
    in
    go ()
  in
  (* Verify a refreshed STH against the trusted one (the checkpointed
     STH, on a resumed session). *)
  let check_sth (n1, r1) =
    Obs.Trace.span ~cat:"fetch" "check-sth" @@ fun () ->
    (match !verified with
    | None -> ()
    | Some (n0, r0) ->
        if n1 = n0 then begin
          if not (String.equal r1 r0) then
            quarantine_pending
              (Printf.sprintf "split view: same size %d, different roots" n1)
        end
        else if n1 < n0 then
          quarantine_pending
            (Printf.sprintf "split view: tree shrank %d -> %d" n0 n1)
        else begin
          let proof =
            let rec go tries =
              if tries >= 3 then
                quarantine_pending
                  (Printf.sprintf "consistency proof %d -> %d unavailable" n0 n1)
              else
                match
                  call
                    ~endpoint:("get-consistency/" ^ string_of_int n1)
                    ~page:n0 ()
                with
                | Some lines -> (
                    match parse_consistency lines with
                    | Some proof -> proof
                    | None -> go (tries + 1))
                | None -> go (tries + 1)
            in
            go 0
          in
          if
            not
              (Merkle.verify_consistency ~old_size:n0 ~old_root:r0 ~new_size:n1
                 ~new_root:r1 ~proof)
          then
            quarantine_pending
              (Printf.sprintf
                 "split view: consistency proof %d -> %d failed verification" n0
                 n1)
        end);
    verified := Some (n1, r1);
    Obs.Counter.inc (Lazy.force obs_sth)
  in
  (* Fetch the page starting at [!next]. *)
  let fetch_page ~tail =
    Obs.Trace.span ~cat:"fetch"
      ~args:[ ("start", Obs.Trace.Int !next) ]
      "page"
    @@ fun () ->
    let start = !next in
    (match call ~hedge:tail ~endpoint:"get-entries" ~page:start () with
    | None -> raise Bad_page
    | Some lines -> (
        match parse_entries lines with
        | Some (s, rows) when s = start && rows <> [] ->
            let in_tree = !tree_ok && Merkle.size tree = start in
            if not in_tree then tree_ok := false;
            List.iteri
              (fun i (precert, der) ->
                let ti = start + i in
                let ci =
                  if (not precert) && ti < Array.length present then present.(ti)
                  else -1
                in
                let leaf =
                  if in_tree then Merkle.leaf_hash (Log.leaf_bytes ~precert der)
                  else ""
                in
                record (Row { ti; ci; der; leaf }))
              rows;
            next := start + List.length rows;
            Obs.Counter.inc (Lazy.force obs_pages)
        | _ -> raise Bad_page));
    incr pages_this_session;
    if !pages_this_session mod 16 = 0 then save_ckpt ();
    match stop_after_pages with
    | Some k when !pages_this_session >= k -> raise Interrupted
    | _ -> ()
  in
  let skip_page ~stop =
    incr gaps;
    tree_ok := false;
    Obs.Counter.inc (Lazy.force obs_gaps);
    next := min stop (!next + cfg.page_cap)
  in
  (* Window close: the running leaf tree must reproduce the verified
     root (when no gap broke it), then the pending entries inside the
     verified prefix become deliverable.  A server may serve past the
     STH we are working against (it published again mid-window); those
     entries stay pending until a later STH covers them. *)
  let flush_at n root =
    if !tree_ok && Merkle.size tree >= n && not (String.equal (Merkle.root_of_range tree n) root)
    then
      quarantine_pending
        (Printf.sprintf "split view: leaf root mismatch at size %d" n);
    let deliver = List.filter (fun r -> r.ti < n) hist.pend in
    if deliver <> [] then record (Flushed n);
    Obs.Counter.add
      (Obs.Counter.Labeled.get (Lazy.force obs_entries) name)
      (float_of_int (List.length (List.filter (fun r -> r.ci >= 0) deliver)));
    save_ckpt ()
  in
  (try
     let finished = ref false in
     while not !finished do
       let n1, r1 = get_sth () in
       check_sth (n1, r1);
       if !next >= n1 && hist.pend = [] then finished := true
       else begin
         let since_tripwire = ref 0 in
         while !next < n1 do
           let tail = !next + cfg.page_cap >= n1 in
           (try fetch_page ~tail with Bad_page -> skip_page ~stop:n1);
           incr since_tripwire;
           if !since_tripwire >= max 1 cfg.sth_every && !next < n1 then begin
             since_tripwire := 0;
             (* Mid-window tripwire: the published head must still be
                consistent with what we trusted. *)
             let sth = get_sth () in
             check_sth sth
           end
         done;
         flush_at n1 r1
       end
     done
   with
  | Stop reason ->
      abandoned := Some reason;
      Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_abandoned) name);
      save_ckpt ()
  | Interrupted -> save_ckpt ());
  let s_raw, s_quar = hand_over ~present ~adjacency hist in
  ( {
      s_raw;
      s_quar;
      s_cov =
        {
          log = name;
          expected;
          delivered = hist.n_raw;
          quarantined = hist.n_quar;
          spans = List.rev hist.spans;
          page_gaps = !gaps;
          abandoned = !abandoned;
          split_view = !split;
          requests = !requests;
          retries = !retries;
        };
    },
    { cursor = !saved; journal = !journal; hist } )

(* --- the corpus source ------------------------------------------------- *)

(* Derive the fault-plan seed from the corpus seed unless pinned, so
   "same seed" reruns replay both the data and the weather. *)
let plan_of cfg ~seed =
  {
    Net.Fault.default_plan with
    Net.Fault.seed = (match cfg.net_seed with Some s -> s | None -> seed lxor 0x7E7);
    rate = cfg.fault_rate;
    kinds = cfg.fault_kinds;
    flap_rate = cfg.flap_rate;
  }

(* One simulated log carrying corpus indexes [lo, hi) — the corruption
   [mutator] and [drop] compose exactly as in the generate source —
   behind its paged server, on its own clock, transport and token
   bucket.  [present.(tree_index)] is the corpus index of each entry. *)
let simulated_log ?mutator ~drop ~scale ~seed ~plan cfg ~name (lo, hi) =
  let log = Log.create ~name in
  let present = ref [] in
  Dataset.iter_deliveries ~scale ~start:lo ~stop:hi ?mutator ~drop ~seed
    (fun index delivery ->
      let der =
        match delivery with
        | Dataset.Entry e -> e.Dataset.cert.X509.Certificate.der
        | Dataset.Corrupt { der; _ } -> der
      in
      ignore (Log.append log der);
      present := index :: !present);
  let server = Server.create ~page_cap:cfg.page_cap log in
  List.iter
    (fun (n, at_request, flip) ->
      if n = name then Server.equivocate_after server ~at_request ~flip)
    cfg.equivocate;
  let clock = Net.Clock.create () in
  let transport =
    Net.Transport.create ~plan
      ~down:(fun l -> List.mem l cfg.down)
      ~clock (Server.handle server)
  in
  let bucket = Net.Bucket.create ~clock ~rate:cfg.rate_per_sec ~burst:cfg.burst in
  (Array.of_list (List.rev !present), server, transport, bucket)

type delivery =
  | Der of int * string                      (* corpus index, delivered DER *)
  | Flagged of int * string * Faults.Error.t (* corpus index, DER, error *)

(* Merge one session's delivered and quarantined streams back into a
   single ascending stream — only those at or after [from], which are
   the heads of the newest-first streams, so nothing older is walked. *)
let deliveries ?(from = 0) s =
  let rec merge raws quars =
    match (raws, quars) with
    | [], [] -> []
    | (ci, der) :: rest, [] -> Der (ci, der) :: merge rest []
    | [], (ci, der, e) :: rest -> Flagged (ci, der, e) :: merge [] rest
    | ((ci, der) :: rrest as rs), ((qi, qder, qe) :: qrest as qs) ->
        if ci <= qi then Der (ci, der) :: merge rrest qs
        else Flagged (qi, qder, qe) :: merge rs qrest
  in
  let rec since acc = function
    | ((ci, _) as x) :: rest when ci >= from -> since (x :: acc) rest
    | _ -> acc
  in
  let rec since_quar acc = function
    | ((ci, _, _) as x) :: rest when ci >= from -> since_quar (x :: acc) rest
    | _ -> acc
  in
  merge (since [] s.s_raw) (since_quar [] s.s_quar)

let delivery_index = function Der (i, _) | Flagged (i, _, _) -> i

let decode = function
  | Flagged (ci, der, e) -> Undecodable (ci, der, e)
  | Der (ci, der) -> (
      match X509.Certificate.parse der with
      | Error e -> Undecodable (ci, der, e)
      | Ok cert -> (
          match Dataset.entry_of_cert cert with
          | Ok entry -> Got (ci, entry)
          | Error e -> Undecodable (ci, der, e)))

let items_of_session ?from s = List.map decode (deliveries ?from s)

let corpus ?(scale = Dataset.default_scale) ~seed ?mutator ?(drop = false)
    ?checkpoint ?(resume = false) ?stop_after_pages ?(jobs = 1) cfg =
  prewarm ();
  let parts = Par.shards ~jobs:cfg.logs scale in
  let plan = plan_of cfg ~seed in
  let tasks =
    List.mapi
      (fun k range () ->
        let name = log_name k in
        let present, _, transport, bucket =
          simulated_log ?mutator ~drop ~scale ~seed ~plan cfg ~name range
        in
        let ckpt_file = Option.map (fun f -> cursor_file f k) checkpoint in
        let start =
          match ckpt_file with
          | Some file when resume -> load_start ~file ~scale ~seed ~name
          | _ -> fresh_start name
        in
        fst
          (run_session ?ckpt_file ?stop_after_pages ~start ~cfg ~scale ~seed
             ~name ~present ~adjacency:(adjacency_of present) ~transport
             ~bucket ()))
      parts
  in
  let sessions = Par.run ~jobs tasks in
  (* Per-log corpus-index ranges are contiguous and ascending, so
     joining per-log streams in log order keeps deliveries globally
     ascending — the same order the generate source uses. *)
  ( List.concat_map (fun s -> deliveries s) sessions,
    List.map (fun s -> s.s_cov) sessions )

(* --- long-lived feeds (the monitor daemon) ----------------------------- *)

(* A feed is one log's whole fetch apparatus kept alive between polls:
   the populated log and its server, the per-log clock, transport and
   token bucket, and the session state (trusted STH, pending window,
   delivery counts and coverage).  That state is read from the cursor
   file once, on the first poll or {!feed_trusted}, and from then on the
   last saved cursor and its running tree stay in [f_start]; each
   session still saves the file at the same points, so a restarted
   daemon resumes exactly where an uninterrupted one would.  The server
   starts with nothing published; the caller grows it with
   {!feed_publish} and each {!poll} runs an ordinary session against
   the currently published head.  A poll hands its deliveries over and
   the feed keeps no DER: the first poll after the cursor file is read
   hands over everything its journal replays, so a restarted daemon can
   re-stage the entries it had not committed. *)
type feed = {
  f_name : string;
  f_lo : int;
  f_hi : int;
  f_present : int array;
  f_adjacency : (int, int) Hashtbl.t;  (* [adjacency_of f_present] *)
  f_server : Server.t;
  f_transport : Net.Transport.t;
  f_bucket : Net.Bucket.t;
  f_ckpt : string;
  f_cfg : cfg;
  f_scale : int;
  f_seed : int;
  mutable f_start : start option;  (* None until the cursor file is read *)
}

let feed_range f = (f.f_lo, f.f_hi)
let feed_goal f = Array.length f.f_present
let feed_published f = Server.published f.f_server

let feeds ?mutator ?(drop = false) ~checkpoint ~scale ~seed cfg =
  prewarm ();
  let parts = Par.shards ~jobs:cfg.logs scale in
  let plan = plan_of cfg ~seed in
  List.mapi
    (fun k (lo, hi) ->
      let name = log_name k in
      let present, server, transport, bucket =
        simulated_log ?mutator ~drop ~scale ~seed ~plan cfg ~name (lo, hi)
      in
      Server.set_published server 0;
      {
        f_name = name;
        f_lo = lo;
        f_hi = hi;
        f_present = present;
        f_adjacency = adjacency_of present;
        f_server = server;
        f_transport = transport;
        f_bucket = bucket;
        f_ckpt = cursor_file checkpoint k;
        f_cfg = cfg;
        f_scale = scale;
        f_seed = seed;
        f_start = None;
      })
    parts

let feed_publish f n =
  let n = min n (feed_goal f) in
  if n > Server.published f.f_server then Server.set_published f.f_server n

let feed_start f =
  match f.f_start with
  | Some start -> start
  | None ->
      let start =
        load_start ~file:f.f_ckpt ~scale:f.f_scale ~seed:f.f_seed ~name:f.f_name
      in
      f.f_start <- Some start;
      start

let feed_trusted f = Option.map fst (feed_start f).cursor.c_verified

let poll ?stop_after_pages f =
  match
    run_session ~ckpt_file:f.f_ckpt ?stop_after_pages ~start:(feed_start f)
      ~cfg:f.f_cfg ~scale:f.f_scale ~seed:f.f_seed ~name:f.f_name
      ~present:f.f_present ~adjacency:f.f_adjacency ~transport:f.f_transport
      ~bucket:f.f_bucket ()
  with
  | session, start ->
      f.f_start <- Some start;
      session
  | exception e ->
      (* The tree may hold pages no save covers: reread the file. *)
      f.f_start <- None;
      raise e
