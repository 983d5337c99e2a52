(* Tests for the fault-tolerant CT-log transport (lib/net) and the
   paged fetch client (Ctlog.Fetch): backoff/jitter bounds, fault-plan
   purity, rate-limiter conformance, per-kind transport behaviour,
   retry / budget / hedging in the client, breaker transitions and
   their Obs counters, wire integrity, server paging and consistency
   proofs, split-view detection, log abandonment, resume-after-kill,
   and byte-identical fetch results across reruns, fault rates and
   [--jobs] values. *)

module Fault = Net.Fault
module Policy = Net.Policy
module Clock = Net.Clock
module Bucket = Net.Bucket
module Transport = Net.Transport
module Client = Net.Client
module Wire = Ctlog.Wire
module Fetch = Ctlog.Fetch

let check = Alcotest.check

let tmp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Policy: decorrelated-jitter backoff stays within its bounds --- *)

let test_backoff_bounds () =
  let p = Policy.default in
  let g = Ucrypto.Prng.of_pair 42 0 in
  let prev = ref p.Policy.base_delay in
  for _ = 1 to 1000 do
    let d = Policy.backoff p g ~prev:!prev in
    if d < p.Policy.base_delay -. 1e-12 then
      Alcotest.failf "backoff %g below floor %g" d p.Policy.base_delay;
    if d > p.Policy.max_delay +. 1e-12 then
      Alcotest.failf "backoff %g above cap %g" d p.Policy.max_delay;
    let bound =
      min p.Policy.max_delay (max p.Policy.base_delay (3.0 *. !prev))
    in
    if d > bound +. 1e-9 then
      Alcotest.failf "backoff %g breaks decorrelated bound %g (prev %g)" d
        bound !prev;
    prev := d
  done

(* --- Fault plan: outcomes are pure, clean plans inject nothing --- *)

let test_fault_purity () =
  let plan =
    { Fault.default_plan with Fault.seed = 7; rate = 0.6; kinds = Fault.all_kinds }
  in
  for page = 0 to 40 do
    for attempt = 0 to 3 do
      let a = Fault.sample plan ~log:"log-03" ~endpoint:"get-entries" ~page ~attempt in
      let b = Fault.sample plan ~log:"log-03" ~endpoint:"get-entries" ~page ~attempt in
      if a <> b then Alcotest.fail "Fault.sample is not pure"
    done
  done;
  let clean = { Fault.default_plan with Fault.seed = 7 } in
  for page = 0 to 100 do
    match (Fault.sample clean ~log:"l" ~endpoint:"e" ~page ~attempt:0).Fault.fault with
    | None -> ()
    | Some k -> Alcotest.failf "clean plan injected %s" (Fault.kind_name k)
  done;
  List.iter
    (fun k ->
      if Fault.kind_of_name (Fault.kind_name k) <> Some k then
        Alcotest.failf "kind name round trip broke for %s" (Fault.kind_name k))
    Fault.all_kinds

(* --- Virtual clock: monotone, never rewinds --- *)

let test_clock () =
  let c = Clock.create ~at:5.0 () in
  check (Alcotest.float 1e-9) "start" 5.0 (Clock.now c);
  Clock.advance c 2.5;
  check (Alcotest.float 1e-9) "advance" 7.5 (Clock.now c);
  Clock.advance c (-3.0);
  check (Alcotest.float 1e-9) "negative advance is a no-op" 7.5 (Clock.now c);
  Clock.advance_to c 6.0;
  check (Alcotest.float 1e-9) "advance_to never rewinds" 7.5 (Clock.now c);
  Clock.advance_to c 10.0;
  check (Alcotest.float 1e-9) "advance_to forward" 10.0 (Clock.now c)

(* --- Token bucket: burst is free, then the rate paces, Retry-After
   embargoes --- *)

let test_bucket () =
  let clock = Clock.create () in
  let b = Bucket.create ~clock ~rate:10.0 ~burst:2.0 in
  let w1 = Bucket.acquire b in
  let w2 = Bucket.acquire b in
  check (Alcotest.float 1e-9) "first burst token free" 0.0 w1;
  check (Alcotest.float 1e-9) "second burst token free" 0.0 w2;
  let w3 = Bucket.acquire b in
  if w3 < 0.05 || w3 > 0.15 then
    Alcotest.failf "third token should wait ~1/rate, waited %g" w3;
  if Clock.now clock < 0.05 then Alcotest.fail "acquire must advance the clock";
  Bucket.penalize b ~seconds:5.0;
  let before = Clock.now clock in
  let w4 = Bucket.acquire b in
  if w4 < 4.99 then Alcotest.failf "embargoed acquire waited only %g" w4;
  if Clock.now clock < before +. 4.99 then
    Alcotest.fail "penalty must advance the clock"

(* --- Transport: each fault kind produces its wire-visible shape --- *)

let body_lines = [ "entries 0 2"; "0 deadbeef"; "0 cafe" ]
let handler _ = Wire.seal body_lines

let mk_transport ?down ~rate ~kinds () =
  let clock = Clock.create () in
  let plan =
    { Fault.default_plan with
      Fault.seed = 11;
      rate;
      kinds;
      base_latency = 0.02;
      latency_jitter = 0.0 }
  in
  (clock, Transport.create ~plan ?down ~clock handler)

let req page = { Transport.log = "log-00"; endpoint = "get-entries"; page }
let valid body = Option.is_some (Wire.open_ body)

let test_transport_kinds () =
  let clean_body =
    let _, t = mk_transport ~rate:0.0 ~kinds:Fault.all_kinds () in
    match Transport.call t ~attempt:0 ~deadline:1.0 (req 0) with
    | Transport.Body b ->
        if not (valid b) then Alcotest.fail "clean body failed checksum";
        b
    | _ -> Alcotest.fail "clean transport must serve a body"
  in
  let shape k =
    let clock, t = mk_transport ~rate:1.0 ~kinds:[ k ] () in
    let resp = Transport.call t ~attempt:0 ~deadline:1.0 (req 0) in
    (match k with
    | Fault.Slow -> (
        match resp with
        | Transport.Body b ->
            if not (valid b) then Alcotest.fail "slow body must be intact";
            if Clock.now clock < 0.4 then
              Alcotest.failf "slow must burn ~25x latency, burned %g"
                (Clock.now clock)
        | _ -> Alcotest.fail "Slow must still serve a body")
    | Fault.Timeout -> (
        match resp with
        | Transport.Timed_out -> ()
        | _ -> Alcotest.fail "Timeout must exceed the attempt deadline")
    | Fault.Reset -> (
        match resp with
        | Transport.Reset -> ()
        | _ -> Alcotest.fail "Reset must reset")
    | Fault.Rate_limit -> (
        match resp with
        | Transport.Retry_later { after } ->
            if after <= 0.0 then Alcotest.fail "Retry-After must be positive"
        | _ -> Alcotest.fail "Rate_limit must answer Retry_later")
    | Fault.Server_error -> (
        match resp with
        | Transport.Error_status s ->
            if s <> 500 && s <> 503 then Alcotest.failf "unexpected status %d" s
        | _ -> Alcotest.fail "Server_error must answer an error status")
    | Fault.Truncate -> (
        match resp with
        | Transport.Body b ->
            if valid b then Alcotest.fail "truncated body passed checksum";
            if String.length b >= String.length clean_body then
              Alcotest.fail "truncated body is not shorter"
        | _ -> Alcotest.fail "Truncate must still serve a body")
    | Fault.Corrupt_body -> (
        match resp with
        | Transport.Body b ->
            if valid b then Alcotest.fail "corrupt body passed checksum";
            check Alcotest.int "corruption keeps the length"
              (String.length clean_body) (String.length b)
        | _ -> Alcotest.fail "Corrupt_body must still serve a body"))
  in
  List.iter shape Fault.all_kinds

let test_transport_down () =
  let clock, t = mk_transport ~down:(fun _ -> true) ~rate:0.0 ~kinds:[] () in
  (match Transport.call t ~attempt:0 ~deadline:1.0 (req 0) with
  | Transport.Reset -> ()
  | _ -> Alcotest.fail "a dead log must reset");
  if Clock.now clock < 1.0 -. 1e-9 then
    Alcotest.fail "a dead log must burn the full attempt deadline"

(* --- Client: success, retries, budget/attempt exhaustion, hedging --- *)

let client_request ?bucket ?hedge ~policy ~transport page =
  Client.request ~policy ?bucket ?hedge ~open_:Wire.open_ ~transport
    ~log:"log-00" ~endpoint:"get-entries" ~page ()

let test_client_clean () =
  let _, transport = mk_transport ~rate:0.0 ~kinds:[] () in
  match client_request ~policy:Policy.default ~transport 0 with
  | Ok f ->
      check Alcotest.int "one attempt" 1 f.Client.attempts;
      check Alcotest.bool "no hedge" false f.Client.hedged;
      check Alcotest.(list string) "body" body_lines f.Client.body
  | Error e -> Alcotest.failf "clean request failed: %s" (Client.describe e)

let test_client_retry () =
  let _, transport =
    mk_transport ~rate:0.25 ~kinds:[ Fault.Reset; Fault.Server_error ] ()
  in
  (* Enough attempts that no page can plausibly exhaust them at a 25%
     fault rate (0.25^8 per page). *)
  let policy = { Policy.default with Policy.max_attempts = 8 } in
  let attempts = ref 0 in
  for page = 0 to 29 do
    match client_request ~policy ~transport page with
    | Ok f -> attempts := !attempts + f.Client.attempts
    | Error e ->
        Alcotest.failf "page %d not recovered: %s" page (Client.describe e)
  done;
  if !attempts <= 30 then
    Alcotest.fail "a 30% fault rate must force at least one retry"

let test_client_attempts_exhausted () =
  let _, transport = mk_transport ~down:(fun _ -> true) ~rate:0.0 ~kinds:[] () in
  let policy = { Policy.default with Policy.request_budget = 1e6 } in
  match client_request ~policy ~transport 0 with
  | Ok _ -> Alcotest.fail "a dead log cannot succeed"
  | Error (Client.Attempts_exhausted { attempts; _ }) ->
      check Alcotest.int "all attempts burned" Policy.default.Policy.max_attempts
        attempts
  | Error e -> Alcotest.failf "expected Attempts_exhausted, got %s" (Client.describe e)

let test_client_budget_exhausted () =
  let _, transport = mk_transport ~down:(fun _ -> true) ~rate:0.0 ~kinds:[] () in
  let policy = { Policy.default with Policy.request_budget = 0.5 } in
  match client_request ~policy ~transport 0 with
  | Ok _ -> Alcotest.fail "a dead log cannot succeed"
  | Error (Client.Budget_exhausted { waited; _ }) ->
      if waited < 0.5 then Alcotest.failf "budget tripped early at %g" waited
  | Error e -> Alcotest.failf "expected Budget_exhausted, got %s" (Client.describe e)

let test_client_hedge () =
  (* Every attempt is Slow: the primary succeeds but past [hedge_after],
     so a tail-page request fires one hedge and keeps the valid
     primary. *)
  let _, transport = mk_transport ~rate:1.0 ~kinds:[ Fault.Slow ] () in
  (match client_request ~policy:Policy.default ~hedge:true ~transport 3 with
  | Ok f ->
      check Alcotest.bool "hedged" true f.Client.hedged;
      check Alcotest.int "primary + hedge" 2 f.Client.attempts;
      if f.Client.waited < 0.4 then
        Alcotest.failf "slow primary must show in waited, got %g" f.Client.waited
  | Error e -> Alcotest.failf "hedged request failed: %s" (Client.describe e));
  let _, transport = mk_transport ~rate:1.0 ~kinds:[ Fault.Slow ] () in
  match client_request ~policy:Policy.default ~transport 3 with
  | Ok f ->
      check Alcotest.bool "no hedge without opt-in" false f.Client.hedged;
      check Alcotest.int "single attempt" 1 f.Client.attempts
  | Error e -> Alcotest.failf "unhedged request failed: %s" (Client.describe e)

(* --- Breaker: the 3-state walk, with its transition counters --- *)

let transitions_counter =
  lazy
    (Obs.Registry.labeled_counter ~label:"transition"
       "unicert_breaker_transitions_total")

let transition_count which =
  Obs.Counter.value (Obs.Counter.Labeled.get (Lazy.force transitions_counter) which)

let test_breaker_transitions () =
  Faults.Breaker.prewarm ();
  let co0 = transition_count "closed_open" in
  let oh0 = transition_count "open_half_open" in
  let hc0 = transition_count "half_open_closed" in
  let ho0 = transition_count "half_open_open" in
  let b = Faults.Breaker.create ~threshold:2 ~cooldown:1.0 "net-test" in
  let state_is expect msg =
    if Faults.Breaker.state b <> expect then Alcotest.fail msg
  in
  Faults.Breaker.failure ~now:0.0 b;
  state_is Faults.Breaker.Closed "one failure stays closed";
  Faults.Breaker.failure ~now:0.0 b;
  state_is Faults.Breaker.Open "threshold failures open";
  check (Alcotest.float 1e-9) "closed_open counted" (co0 +. 1.0)
    (transition_count "closed_open");
  if Faults.Breaker.allow ~now:0.5 b then
    Alcotest.fail "open breaker must refuse before cooldown";
  if not (Faults.Breaker.allow ~now:1.5 b) then
    Alcotest.fail "cooled-down breaker must admit a probe";
  state_is Faults.Breaker.Half_open "probe admission half-opens";
  check (Alcotest.float 1e-9) "open_half_open counted" (oh0 +. 1.0)
    (transition_count "open_half_open");
  Faults.Breaker.success b;
  state_is Faults.Breaker.Closed "probe success closes";
  check (Alcotest.float 1e-9) "half_open_closed counted" (hc0 +. 1.0)
    (transition_count "half_open_closed");
  Faults.Breaker.failure ~now:2.0 b;
  Faults.Breaker.failure ~now:2.0 b;
  state_is Faults.Breaker.Open "re-opens on fresh failures";
  if not (Faults.Breaker.allow ~now:4.0 b) then
    Alcotest.fail "second cooldown must admit a probe";
  Faults.Breaker.failure ~now:4.0 b;
  state_is Faults.Breaker.Open "probe failure re-opens";
  check (Alcotest.float 1e-9) "half_open_open counted" (ho0 +. 1.0)
    (transition_count "half_open_open");
  check Alcotest.int "three trips recorded" 3 (Faults.Breaker.trips b);
  let text = Obs.Export.to_prometheus Obs.Registry.default in
  check Alcotest.bool "transition counters exported" true
    (contains text "unicert_breaker_transitions_total")

(* --- Wire: seal/open round trip, torn and corrupted bodies --- *)

let test_wire_roundtrip () =
  let lines = [ "sth 42 deadbeef"; "consistency 1 2 0" ] in
  let body = Wire.seal lines in
  check Alcotest.bool "sealed body valid" true (valid body);
  (match Wire.open_ body with
  | Some got -> check (Alcotest.list Alcotest.string) "payload" lines got
  | None -> Alcotest.fail "seal/open round trip failed");
  let torn = String.sub body 0 (String.length body - 5) in
  check Alcotest.bool "torn body rejected" false (valid torn);
  if Wire.open_ torn <> None then Alcotest.fail "torn body must not open";
  let flipped = Bytes.of_string body in
  Bytes.set flipped 2 (Char.chr (Char.code (Bytes.get flipped 2) lxor 0x40));
  if Wire.open_ (Bytes.to_string flipped) <> None then
    Alcotest.fail "bit-flipped body must not open"

(* --- Server: paging, STH, consistency proofs --- *)

let mk_server () =
  let log = Ctlog.Log.create ~name:"srv-test" in
  for i = 0 to 9 do
    ignore (Ctlog.Log.add_chain log (Printf.sprintf "der-%02d" i))
  done;
  (log, Ctlog.Server.create ~page_cap:4 log)

let open_exn body =
  match Wire.open_ body with
  | Some lines -> lines
  | None -> Alcotest.fail "server body failed its own checksum"

let test_server_pages () =
  let log, srv = mk_server () in
  (match open_exn (Ctlog.Server.handle srv (req 0)) with
  | hdr :: entries ->
      check Alcotest.string "first page header" "entries 0 4" hdr;
      check Alcotest.int "page_cap honoured" 4 (List.length entries);
      check Alcotest.string "first entry" ("0 " ^ Wire.to_hex "der-00")
        (List.hd entries)
  | [] -> Alcotest.fail "empty page body");
  (match open_exn (Ctlog.Server.handle srv (req 8)) with
  | hdr :: entries ->
      check Alcotest.string "tail page header" "entries 8 2" hdr;
      check Alcotest.int "tail page short" 2 (List.length entries)
  | [] -> Alcotest.fail "empty tail body");
  (match open_exn (Ctlog.Server.handle srv (req 10)) with
  | hdr :: _ ->
      check Alcotest.bool "past-the-end start is a 400" true
        (contains hdr "error 400")
  | [] -> Alcotest.fail "empty error body");
  match
    open_exn
      (Ctlog.Server.handle srv
         { Transport.log = "srv-test"; endpoint = "get-sth"; page = 0 })
  with
  | [ sth ] ->
      check Alcotest.string "sth advertises the published root"
        (Printf.sprintf "sth 10 %s"
           (Wire.to_hex (Ctlog.Merkle.root_of_range (Ctlog.Log.tree log) 10)))
        sth
  | _ -> Alcotest.fail "get-sth must answer exactly one line"

let test_server_consistency () =
  let log, srv = mk_server () in
  let tree = Ctlog.Log.tree log in
  match
    open_exn
      (Ctlog.Server.handle srv
         { Transport.log = "srv-test"; endpoint = "get-consistency/10"; page = 4 })
  with
  | hdr :: proof_hex ->
      check Alcotest.bool "consistency header" true (contains hdr "consistency 4 10");
      let proof = List.filter_map Wire.of_hex proof_hex in
      check Alcotest.int "proof nodes all decode" (List.length proof_hex)
        (List.length proof);
      check Alcotest.bool "proof verifies" true
        (Ctlog.Merkle.verify_consistency ~old_size:4
           ~old_root:(Ctlog.Merkle.root_of_range tree 4) ~new_size:10
           ~new_root:(Ctlog.Merkle.root_of_range tree 10) ~proof);
      check Alcotest.bool "proof rejects a forged old root" false
        (Ctlog.Merkle.verify_consistency ~old_size:4
           ~old_root:(String.make 32 '\x00') ~new_size:10
           ~new_root:(Ctlog.Merkle.root_of_range tree 10) ~proof)
  | [] -> Alcotest.fail "empty consistency body"

(* Pages from the indexed log must be the bytes a scan of the whole
   log produced, before and after the server starts equivocating. *)
let test_server_pages_match_scan () =
  let log = Ctlog.Log.create ~name:"srv-test" in
  for i = 0 to 9 do
    ignore (Ctlog.Log.add_chain log ~precert:(i mod 3 = 1) (Printf.sprintf "der-%02d" i))
  done;
  let srv = Ctlog.Server.create ~page_cap:4 log in
  Ctlog.Server.equivocate_after srv ~at_request:5 ~flip:6;
  let scanned ~flip start =
    let stop = min 10 (start + 4) in
    let flipped der =
      let b = Bytes.of_string der in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
      Bytes.to_string b
    in
    Wire.seal
      (Printf.sprintf "entries %d %d" start (stop - start)
      :: List.filter_map
           (fun (e : Ctlog.Log.entry) ->
             if e.Ctlog.Log.index < start || e.Ctlog.Log.index >= stop then None
             else
               Some
                 (Printf.sprintf "%d %s"
                    (if e.Ctlog.Log.precert then 1 else 0)
                    (Wire.to_hex
                       (if e.Ctlog.Log.index = flip then flipped e.Ctlog.Log.der
                        else e.Ctlog.Log.der))))
           (Ctlog.Log.entries log))
  in
  for round = 0 to 1 do
    for start = 0 to 9 do
      let body = Ctlog.Server.handle srv (req start) in
      let flip = if Ctlog.Server.requests srv > 5 then 6 else -1 in
      check Alcotest.string
        (Printf.sprintf "round %d page at %d" round start)
        (scanned ~flip start) body
    done
  done

(* --- Fetch: end-to-end sessions over the simulated logs --- *)

let small_cfg ?(fault_rate = 0.0) ?(down = []) ?(equivocate = [])
    ?(page_cap = Ctlog.Server.default_page_cap) () =
  { Fetch.default_cfg with
    Fetch.logs = 4;
    net_seed = Some 99;
    fault_rate;
    down;
    equivocate;
    page_cap }

(* A one-shot fetch with every delivery decoded. *)
let corpus_items ?mutator ?drop ?checkpoint ?resume ?stop_after_pages ?jobs ~scale
    ~seed cfg =
  let deliveries, covs =
    Fetch.corpus ?mutator ?drop ?checkpoint ?resume ?stop_after_pages ?jobs ~scale
      ~seed cfg
  in
  (List.map Fetch.decode deliveries, covs)

let item_fp = function
  | Fetch.Got (i, e) ->
      Printf.sprintf "%d got %s" i
        (Digest.to_hex
           (Digest.string (X509.Certificate.to_pem e.Ctlog.Dataset.cert)))
  | Fetch.Undecodable (i, der, err) ->
      Printf.sprintf "%d bad %s %s" i
        (Digest.to_hex (Digest.string der))
        (Faults.Error.class_name err)

let fps items = String.concat "\n" (List.map item_fp items)

let assert_ascending items =
  ignore
    (List.fold_left
       (fun prev it ->
         let i = Fetch.item_index it in
         if i <= prev then Alcotest.failf "indices not ascending at %d" i;
         i)
       (-1) items)

let sum_delivered covs = List.fold_left (fun a c -> a + c.Fetch.delivered) 0 covs
let sum_retries covs = List.fold_left (fun a c -> a + c.Fetch.retries) 0 covs

let assert_complete covs =
  List.iter
    (fun c ->
      if not (Fetch.coverage_complete c) then
        Alcotest.failf "log %s incomplete: %d/%d delivered" c.Fetch.log
          c.Fetch.delivered c.Fetch.expected)
    covs

let test_fetch_clean () =
  let items, covs = corpus_items ~scale:64 ~seed:5 (small_cfg ()) in
  check Alcotest.int "one coverage row per log" 4 (List.length covs);
  assert_complete covs;
  assert_ascending items;
  List.iter
    (function
      | Fetch.Got _ -> ()
      | Fetch.Undecodable (i, _, _) ->
          Alcotest.failf "clean fetch yielded undecodable index %d" i)
    items;
  check Alcotest.int "every delivered entry surfaced" (sum_delivered covs)
    (List.length items)

let test_fetch_faulty_identical () =
  let clean = fps (fst (corpus_items ~scale:64 ~seed:5 (small_cfg ()))) in
  let items, covs =
    corpus_items ~scale:64 ~seed:5 (small_cfg ~fault_rate:0.2 ~page_cap:4 ())
  in
  assert_complete covs;
  if sum_retries covs = 0 then
    Alcotest.fail "a 20% fault rate must force retries";
  check Alcotest.string "faulty run delivers the clean bytes" clean (fps items)

let test_fetch_split_view () =
  let cfg =
    small_cfg ~page_cap:4 ~equivocate:[ (Fetch.log_name 1, 1, 2) ] ()
  in
  let items, covs = corpus_items ~scale:64 ~seed:5 cfg in
  let forked = List.find (fun c -> c.Fetch.log = Fetch.log_name 1) covs in
  check Alcotest.bool "split view flagged" true forked.Fetch.split_view;
  if Fetch.coverage_complete forked then
    Alcotest.fail "an equivocating log cannot count as complete coverage";
  if forked.Fetch.quarantined = 0 then
    Alcotest.fail "the inconsistent range must be quarantined";
  List.iter
    (fun c ->
      if c.Fetch.log <> Fetch.log_name 1 && not (Fetch.coverage_complete c) then
        Alcotest.failf "honest log %s dragged down" c.Fetch.log)
    covs;
  let integrity =
    List.exists
      (function
        | Fetch.Undecodable (_, _, Faults.Error.Integrity _) -> true
        | _ -> false)
      items
  in
  check Alcotest.bool "quarantined items carry Integrity provenance" true
    integrity

let test_fetch_down_abandoned () =
  let cfg = small_cfg ~down:[ Fetch.log_name 2 ] () in
  let items, covs = corpus_items ~scale:64 ~seed:5 cfg in
  let dead = List.find (fun c -> c.Fetch.log = Fetch.log_name 2) covs in
  (match dead.Fetch.abandoned with
  | Some _ -> ()
  | None -> Alcotest.fail "a dead log must be abandoned, not hang the run");
  check Alcotest.int "dead log delivers nothing" 0 dead.Fetch.delivered;
  List.iter
    (fun c ->
      if c.Fetch.log <> Fetch.log_name 2 && not (Fetch.coverage_complete c) then
        Alcotest.failf "healthy log %s dragged down" c.Fetch.log)
    covs;
  check Alcotest.int "survivors still delivered" (sum_delivered covs)
    (List.length items)

let test_fetch_resume_after_kill () =
  let dir = tmp_dir "unicert-net-resume" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let base = Filename.concat dir "ckpt" in
      let cfg = small_cfg ~page_cap:2 () in
      let full = fps (fst (corpus_items ~scale:64 ~seed:5 cfg)) in
      let _, covs1 =
        corpus_items ~scale:64 ~seed:5 ~checkpoint:base ~stop_after_pages:2 cfg
      in
      if List.for_all Fetch.coverage_complete covs1 then
        Alcotest.fail "the kill hook must leave the fetch unfinished";
      let items2, covs2 =
        corpus_items ~scale:64 ~seed:5 ~checkpoint:base ~resume:true cfg
      in
      assert_complete covs2;
      check Alcotest.string "resumed run delivers the full-run bytes" full
        (fps items2))

(* The cursor headers under [dir] whose names start with [prefix],
   with their bytes.  Putting an earlier copy back over journals that
   have grown since is exactly what a crash between a save's journal
   append and its header replace leaves on disk. *)
let cursor_headers dir prefix =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f ->
         String.starts_with ~prefix f && not (Filename.check_suffix f ".journal"))
  |> List.map (fun f ->
         let p = Filename.concat dir f in
         (p, In_channel.with_open_bin p In_channel.input_all))

let restore_headers =
  List.iter (fun (p, data) ->
      Out_channel.with_open_bin p (fun oc -> output_string oc data))

let journal_sizes headers =
  List.map
    (fun (p, _) -> (Unix.stat (Faults.Checkpoint.journal_file p)).Unix.st_size)
    headers

let test_fetch_resume_journal_tail () =
  let dir = tmp_dir "unicert-net-tail" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let base = Filename.concat dir "ckpt" in
      let cfg = small_cfg ~page_cap:2 () in
      let full = fps (fst (corpus_items ~scale:64 ~seed:5 cfg)) in
      ignore (corpus_items ~scale:64 ~seed:5 ~checkpoint:base ~stop_after_pages:2 cfg);
      let early = cursor_headers dir "ckpt.fetch" in
      let early_sizes = journal_sizes early in
      ignore
        (corpus_items ~scale:64 ~seed:5 ~checkpoint:base ~resume:true
           ~stop_after_pages:2 cfg);
      restore_headers early;
      if List.for_all2 ( = ) early_sizes (journal_sizes early) then
        Alcotest.fail "the journals must run past their restored headers";
      let items, covs =
        corpus_items ~scale:64 ~seed:5 ~checkpoint:base ~resume:true cfg
      in
      assert_complete covs;
      check Alcotest.string "a journal tail past the header resumes byte-identically"
        full (fps items))

let test_fetch_jobs_deterministic () =
  let cfg = small_cfg ~fault_rate:0.15 ~page_cap:4 () in
  let run jobs = corpus_items ~scale:96 ~seed:7 ~jobs cfg in
  let items1, covs1 = run 1 in
  let items4, covs4 = run 4 in
  let items4', covs4' = run 4 in
  check Alcotest.string "jobs=1 == jobs=4" (fps items1) (fps items4);
  check Alcotest.string "jobs=4 rerun identical" (fps items4) (fps items4');
  check Alcotest.bool "coverage identical across jobs" true
    (covs1 = covs4 && covs4 = covs4')

let test_fetch_mutator_drop () =
  let m = Faults.Mutator.plan ~seed:77 ~rate:0.15 () in
  let cfg = small_cfg () in
  let items_m, covs_m = corpus_items ~scale:64 ~seed:5 ~mutator:m cfg in
  let items_d, covs_d = corpus_items ~scale:64 ~seed:5 ~mutator:m ~drop:true cfg in
  assert_complete covs_m;
  assert_complete covs_d;
  let corrupt =
    List.exists (function Fetch.Undecodable _ -> true | _ -> false) items_m
  in
  check Alcotest.bool "corrupted blobs surface as undecodable" true corrupt;
  List.iter
    (function
      | Fetch.Undecodable (i, _, _) ->
          Alcotest.failf "drop mode delivered corrupt index %d" i
      | Fetch.Got _ -> ())
    items_d;
  let gots items =
    String.concat "\n"
      (List.filter_map
         (function Fetch.Got _ as it -> Some (item_fp it) | _ -> None)
         items)
  in
  check Alcotest.string "survivors identical between corrupt and drop"
    (gots items_m) (gots items_d)

(* Feeds over a forking log: log 1 equivocates, so its session holds
   both delivered entries and an Integrity-quarantined range; the
   mutator adds undecodable deliveries. *)
let polled_sessions ~dir =
  let cfg = small_cfg ~page_cap:4 ~equivocate:[ (Fetch.log_name 1, 1, 2) ] () in
  let mutator = Faults.Mutator.plan ~seed:77 ~rate:0.15 () in
  Fetch.feeds ~mutator ~checkpoint:(Filename.concat dir "cursors") ~scale:64
    ~seed:5 cfg
  |> List.map (fun f ->
         Fetch.feed_publish f (Fetch.feed_goal f);
         (f, Fetch.poll f))

let test_items_of_session_from () =
  let dir = tmp_dir "unicert-net-from" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sessions = polled_sessions ~dir in
      if not (List.exists (fun (_, s) -> s.Fetch.s_quar <> []) sessions) then
        Alcotest.fail "the forking log must quarantine a range";
      List.iter
        (fun (f, s) ->
          let all = Fetch.items_of_session s in
          let lo, hi = Fetch.feed_range f in
          for k = lo - 1 to hi + 1 do
            check Alcotest.string
              (Printf.sprintf "feed %d-%d from %d" lo hi k)
              (fps (List.filter (fun it -> Fetch.item_index it >= k) all))
              (fps (Fetch.items_of_session ~from:k s))
          done)
        sessions)

(* Ticks of 5 published entries per log; returns each log's final
   coverage with the items all its polls handed over, in order — each
   handed over once, so they ascend. *)
let tick_feeds feeds ~ticks =
  let got = List.map (fun _ -> ref []) feeds and last = ref [] in
  for _ = 1 to ticks do
    last :=
      List.map2
        (fun f acc ->
          Fetch.feed_publish f (Fetch.feed_published f + 5);
          let s = Fetch.poll f in
          acc := List.rev_append (Fetch.items_of_session s) !acc;
          s.Fetch.s_cov)
        feeds got
  done;
  List.map2
    (fun c acc ->
      let items = List.rev !acc in
      assert_ascending items;
      (c, items))
    !last got

(* A daemon restart mid-ingest: new feeds read the saved cursors
   (trusted STH, running leaf hashes, deliveries), republish to the
   trusted head and keep polling.  Every window still has to reproduce
   the server's root from the restored tree, and the deliveries must
   equal an uninterrupted run's. *)
let test_feed_restart_resumes () =
  let dir = tmp_dir "unicert-net-feeds" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg = small_cfg ~page_cap:4 () in
      let mk sub =
        Fetch.feeds ~checkpoint:(Filename.concat dir sub) ~scale:64 ~seed:5 cfg
      in
      let summary logs =
        List.iter
          (fun (c, _) ->
            if c.Fetch.split_view || not (Fetch.coverage_complete c) then
              Alcotest.failf "log %s did not verify to completion" c.Fetch.log)
          logs;
        fps (List.concat_map snd logs)
      in
      let straight = summary (tick_feeds (mk "a") ~ticks:8) in
      ignore (tick_feeds (mk "b") ~ticks:2);
      let reopened = mk "b" in
      List.iter
        (fun f ->
          match Fetch.feed_trusted f with
          | Some n -> Fetch.feed_publish f n
          | None -> Alcotest.fail "a polled feed must have a trusted head")
        reopened;
      check Alcotest.string "restarted feeds deliver the uninterrupted bytes"
        straight
        (summary (tick_feeds reopened ~ticks:8)))

(* A daemon killed between a save's journal append and its header
   replace: the restarted feeds read the older headers, ignore the
   journal records past them and refetch those entries. *)
let test_feed_restart_journal_tail () =
  let dir = tmp_dir "unicert-net-feeds-tail" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg = small_cfg ~page_cap:4 () in
      let mk sub =
        Fetch.feeds ~checkpoint:(Filename.concat dir sub) ~scale:64 ~seed:5 cfg
      in
      let summary logs =
        List.iter
          (fun (c, _) ->
            if c.Fetch.split_view || not (Fetch.coverage_complete c) then
              Alcotest.failf "log %s did not verify to completion" c.Fetch.log)
          logs;
        fps (List.concat_map snd logs)
      in
      let straight = summary (tick_feeds (mk "a") ~ticks:8) in
      let running = mk "b" in
      ignore (tick_feeds running ~ticks:1);
      let early = cursor_headers dir "b.fetch" in
      let early_sizes = journal_sizes early in
      ignore (tick_feeds running ~ticks:2);
      restore_headers early;
      if List.for_all2 ( = ) early_sizes (journal_sizes early) then
        Alcotest.fail "the journals must run past their restored headers";
      let reopened = mk "b" in
      List.iter
        (fun f -> Option.iter (Fetch.feed_publish f) (Fetch.feed_trusted f))
        reopened;
      check Alcotest.string "restarted feeds deliver the uninterrupted bytes"
        straight
        (summary (tick_feeds reopened ~ticks:8)))

(* A poll's cursor saves write the new rows and a small header, never
   the history: at 1x and 4x prior history, the bytes one poll writes
   stay under a constant per log plus a per-entry allowance over the
   DER it fetched.  Rewriting the delivered history (as v002 cursors
   did) would blow the bound at both sizes. *)
let test_cursor_save_bytes_bounded () =
  let dir = tmp_dir "unicert-net-bytes" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg = small_cfg () in
      let feeds =
        Fetch.feeds ~checkpoint:(Filename.concat dir "c") ~scale:320 ~seed:5 cfg
      in
      let written =
        Obs.Registry.counter "unicert_checkpoint_bytes_written_total"
      in
      (* Publish up to [n] entries per log, poll every log, and return
         the bytes the polls wrote with the DER bytes they delivered. *)
      let poll_to n =
        let before = Obs.Counter.value written in
        let der =
          List.fold_left
            (fun acc f ->
              Fetch.feed_publish f n;
              List.fold_left
                (fun acc (_, der) -> acc + String.length der + 256)
                acc (Fetch.poll f).Fetch.s_raw)
            0 feeds
        in
        (int_of_float (Obs.Counter.value written -. before), der)
      in
      List.iter
        (fun (history, label) ->
          ignore (poll_to history);
          let bytes, allowance = poll_to (history + 4) in
          let bound = (1024 * List.length feeds) + allowance in
          if bytes > bound then
            Alcotest.failf "%s history: one poll wrote %d bytes (bound %d)" label
              bytes bound;
          if allowance = 0 then Alcotest.failf "%s history: nothing fetched" label)
        [ (16, "1x"); (64, "4x") ])

(* A feed forgets the DER it hands over: after 16 polls of 64 entries
   per log over 16 logs at scale 4,096 (seed 1), what the feeds grew by
   — running leaf trees, counts and spans — stays within 30 words per
   delivered entry.  Feeds that kept the DER they hand over would grow
   by 86. *)
let test_feed_words_bounded () =
  let dir = tmp_dir "unicert-net-words" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let feeds =
        Fetch.feeds ~checkpoint:(Filename.concat dir "c") ~scale:4096 ~seed:1
          Fetch.default_cfg
      in
      check Alcotest.int "16 logs" 16 (List.length feeds);
      let before = Obj.reachable_words (Obj.repr feeds) in
      let delivered = ref 0 in
      for _ = 1 to 16 do
        List.iter
          (fun f ->
            Fetch.feed_publish f (Fetch.feed_published f + 64);
            let s = Fetch.poll f in
            delivered := !delivered + List.length s.Fetch.s_raw + List.length s.Fetch.s_quar)
          feeds
      done;
      check Alcotest.int "every entry delivered" 4096 !delivered;
      let per_entry =
        float_of_int (Obj.reachable_words (Obj.repr feeds) - before)
        /. float_of_int !delivered
      in
      if per_entry > 30. then
        Alcotest.failf "the feeds grew by %.1f words per delivered entry (bound 30)"
          per_entry)

(* The restored tree must keep verifying: after the restart, log 1's
   new server answers its STH and consistency proof from the real
   tree, then serves pages from a fork with leaf 12 flipped.  Only the
   leaves carried over in the cursor let the window flush see that the
   fetched entries do not reproduce the trusted root. *)
let test_feed_restart_verifies () =
  let dir = tmp_dir "unicert-net-feeds-fork" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg =
        small_cfg ~page_cap:4 ~equivocate:[ (Fetch.log_name 1, 2, 12) ] ()
      in
      let mk () =
        Fetch.feeds ~checkpoint:(Filename.concat dir "c") ~scale:64 ~seed:5 cfg
      in
      List.iter
        (fun (c, _) ->
          if c.Fetch.split_view then
            Alcotest.failf "%s forked before the flipped leaf was published"
              c.Fetch.log)
        (tick_feeds (mk ()) ~ticks:2);
      let reopened = mk () in
      List.iter
        (fun f -> Option.iter (Fetch.feed_publish f) (Fetch.feed_trusted f))
        reopened;
      let trusted =
        Option.get (Fetch.feed_trusted (List.nth reopened 1))
      in
      let covs = List.map fst (tick_feeds reopened ~ticks:1) in
      let forked = List.find (fun c -> c.Fetch.log = Fetch.log_name 1) covs in
      check Alcotest.bool "the fork is flagged" true forked.Fetch.split_view;
      (* A later STH refresh would flag the fork too, but only the
         window flush keeps the forked entries from being delivered. *)
      check Alcotest.int "nothing past the trusted head is delivered" trusted
        forked.Fetch.delivered;
      List.iter
        (fun c ->
          if c.Fetch.log <> Fetch.log_name 1 && c.Fetch.split_view then
            Alcotest.failf "honest log %s flagged" c.Fetch.log)
        covs)

let suite =
  [
    Alcotest.test_case "backoff-bounds" `Quick test_backoff_bounds;
    Alcotest.test_case "fault-purity" `Quick test_fault_purity;
    Alcotest.test_case "virtual-clock" `Quick test_clock;
    Alcotest.test_case "token-bucket" `Quick test_bucket;
    Alcotest.test_case "transport-kinds" `Quick test_transport_kinds;
    Alcotest.test_case "transport-down" `Quick test_transport_down;
    Alcotest.test_case "client-clean" `Quick test_client_clean;
    Alcotest.test_case "client-retry" `Quick test_client_retry;
    Alcotest.test_case "client-attempts-exhausted" `Quick
      test_client_attempts_exhausted;
    Alcotest.test_case "client-budget-exhausted" `Quick
      test_client_budget_exhausted;
    Alcotest.test_case "client-hedge" `Quick test_client_hedge;
    Alcotest.test_case "breaker-transitions" `Quick test_breaker_transitions;
    Alcotest.test_case "wire-roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "server-pages" `Quick test_server_pages;
    Alcotest.test_case "server-consistency" `Quick test_server_consistency;
    Alcotest.test_case "server-pages-match-scan" `Quick
      test_server_pages_match_scan;
    Alcotest.test_case "fetch-clean" `Quick test_fetch_clean;
    Alcotest.test_case "fetch-faulty-identical" `Quick
      test_fetch_faulty_identical;
    Alcotest.test_case "fetch-split-view" `Quick test_fetch_split_view;
    Alcotest.test_case "fetch-down-abandoned" `Quick test_fetch_down_abandoned;
    Alcotest.test_case "fetch-resume-after-kill" `Quick
      test_fetch_resume_after_kill;
    Alcotest.test_case "fetch-jobs-deterministic" `Quick
      test_fetch_jobs_deterministic;
    Alcotest.test_case "fetch-mutator-drop" `Quick test_fetch_mutator_drop;
    Alcotest.test_case "items-of-session-from" `Quick test_items_of_session_from;
    Alcotest.test_case "feed-restart-resumes" `Quick test_feed_restart_resumes;
    Alcotest.test_case "feed-restart-verifies" `Quick test_feed_restart_verifies;
    Alcotest.test_case "fetch-resume-journal-tail" `Quick
      test_fetch_resume_journal_tail;
    Alcotest.test_case "feed-restart-journal-tail" `Quick
      test_feed_restart_journal_tail;
    Alcotest.test_case "cursor-save-bytes-bounded" `Quick
      test_cursor_save_bytes_bounded;
    Alcotest.test_case "feed-words-bounded" `Quick test_feed_words_bounded;
  ]
