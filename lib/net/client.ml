(* Retrying HTTP-ish client over the simulated transport: token-bucket
   admission, capped decorrelated-jitter backoff between attempts, a
   per-request virtual-time budget, Retry-After honouring, and optional
   hedging for tail pages.  The backoff stream is keyed by (transport
   seed, log, endpoint, page) so reruns replay identical schedules. *)

type 'a fetched = {
  body : 'a;
  attempts : int;   (* transport calls made, hedges included *)
  hedged : bool;
  waited : float;   (* virtual seconds from admission to outcome *)
}

type error =
  | Attempts_exhausted of { attempts : int }
  | Budget_exhausted of { attempts : int; waited : float }

let describe = function
  | Attempts_exhausted { attempts } ->
      Printf.sprintf "retries exhausted after %d attempts" attempts
  | Budget_exhausted { attempts; waited } ->
      Printf.sprintf "request budget exhausted after %d attempts (%.1fs)"
        attempts waited

let obs_requests =
  lazy
    (Obs.Registry.labeled_counter ~label:"endpoint"
       ~help:"Client requests issued, by endpoint"
       "unicert_net_requests_total")

let obs_retries =
  lazy
    (Obs.Registry.counter ~help:"Client attempts beyond the first"
       "unicert_net_retries_total")

let obs_rate_limited =
  lazy
    (Obs.Registry.counter ~help:"429 responses honoured with Retry-After"
       "unicert_net_rate_limited_total")

let obs_hedges =
  lazy
    (Obs.Registry.counter ~help:"Hedged (duplicate) attempts fired for tail pages"
       "unicert_net_hedges_total")

let obs_giveups =
  lazy
    (Obs.Registry.labeled_counter ~label:"endpoint"
       ~help:"Requests abandoned after exhausting retries or budget"
       "unicert_net_giveups_total")

let obs_hedge_outcomes =
  lazy
    (Obs.Registry.labeled_counter ~label:"outcome"
       ~help:
         "Hedged tail-page races by outcome: primary_won, hedge_won or \
          both_failed"
       "unicert_hedge_requests_total")

let obs_backoff =
  lazy
    (Obs.Registry.histogram
       ~buckets:(Obs.Histogram.log_buckets ~base:0.01 ~factor:2.0 ~count:12)
       ~help:"Backoff sleeps between attempts (virtual seconds)"
       "unicert_net_backoff_seconds")

let prewarm () =
  ignore (Lazy.force obs_requests);
  ignore (Lazy.force obs_retries);
  ignore (Lazy.force obs_rate_limited);
  ignore (Lazy.force obs_hedges);
  ignore (Lazy.force obs_giveups);
  ignore (Lazy.force obs_hedge_outcomes);
  ignore (Lazy.force obs_backoff)

let opened ~open_ = function Transport.Body b -> open_ b | _ -> None

(* The hedge attempt lives in a disjoint attempt namespace (0x1000 + n)
   so it samples an independent fault outcome for the same page. *)
let hedge_attempt n = 0x1000 + n

let request (type a) ~(policy : Policy.t) ?bucket ?(hedge = false)
    ~(open_ : string -> a option) ~transport ~log ~endpoint ~page () =
  let exception Done of (a fetched, error) result in
  Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_requests) endpoint);
  (* One trace slice per request on the calling domain's track, with
     the retry machinery inside it as instant events (backoff sleeps,
     Retry-After penalties, hedge races). *)
  let traced = Obs.Trace.enabled () in
  if traced then
    Obs.Trace.emit_begin ~cat:"net"
      ~args:[ ("log", Obs.Trace.Str log); ("page", Obs.Trace.Int page) ]
      endpoint;
  let clock = Transport.clock transport in
  let req = { Transport.log; endpoint; page } in
  let backoff_stream =
    Ucrypto.Prng.of_pair
      ((Transport.plan transport).Fault.seed
      lxor Fault.fnv1a (log ^ "\x00" ^ endpoint ^ "\x00backoff"))
      page
  in
  let started = Clock.now clock in
  let attempts = ref 0 in
  let hedged = ref false in
  let prev = ref policy.Policy.base_delay in
  let finish body =
    raise
      (Done
         (Ok
            {
              body;
              attempts = !attempts;
              hedged = !hedged;
              waited = Clock.now clock -. started;
            }))
  in
  try
    for attempt = 0 to policy.Policy.max_attempts - 1 do
      (match bucket with Some b -> ignore (Bucket.acquire b) | None -> ());
      incr attempts;
      if attempt > 0 then Obs.Counter.inc (Lazy.force obs_retries);
      let t0 = Clock.now clock in
      let resp =
        Transport.call transport ~attempt ~deadline:policy.Policy.attempt_deadline
          req
      in
      (* Each body is opened at most once: [got] is the opened winner,
         [resp] the response whose status drives the retry below. *)
      let got = opened ~open_ resp in
      let resp, got =
        (* Hedge: on a tail page, when the primary attempt failed or ran
           past [hedge_after], fire one duplicate attempt in a disjoint
           fault namespace and take whichever succeeded.  The virtual
           model is sequential, so the hedge's latency is additive; its
           value is skipping a full backoff cycle. *)
        let slow = Clock.now clock -. t0 > policy.Policy.hedge_after in
        if hedge && attempt = 0 && (Option.is_none got || slow) then begin
          hedged := true;
          incr attempts;
          Obs.Counter.inc (Lazy.force obs_hedges);
          let r2 =
            Transport.call transport ~attempt:(hedge_attempt attempt)
              ~deadline:policy.Policy.attempt_deadline req
          in
          let outcome, winner =
            match got with
            | Some _ -> ("primary_won", (resp, got))
            | None -> (
                match opened ~open_ r2 with
                | Some _ as g2 -> ("hedge_won", (r2, g2))
                | None -> ("both_failed", (resp, None)))
          in
          Obs.Counter.inc
            (Obs.Counter.Labeled.get (Lazy.force obs_hedge_outcomes) outcome);
          if traced then
            Obs.Trace.instant ~cat:"net"
              ~args:
                [ ("outcome", Obs.Trace.Str outcome);
                  ("page", Obs.Trace.Int page) ]
              "hedge";
          winner
        end
        else (resp, got)
      in
      (match (got, resp) with
      | Some v, _ -> finish v
      | None, Transport.Retry_later { after; _ } ->
          Obs.Counter.inc (Lazy.force obs_rate_limited);
          if traced then
            Obs.Trace.instant ~cat:"net"
              ~args:[ ("seconds", Obs.Trace.Float after) ]
              "retry-after";
          (match bucket with
          | Some b -> Bucket.penalize b ~seconds:after
          | None -> Clock.advance clock after)
      | None, (Transport.Body _ (* torn page: [open_] rejected it *)
              | Transport.Error_status _ | Transport.Timed_out | Transport.Reset) ->
          ());
      let waited = Clock.now clock -. started in
      if waited > policy.Policy.request_budget then
        raise (Done (Error (Budget_exhausted { attempts = !attempts; waited })));
      if attempt < policy.Policy.max_attempts - 1 then begin
        let d = Policy.backoff policy backoff_stream ~prev:!prev in
        prev := d;
        Obs.Histogram.observe (Lazy.force obs_backoff) d;
        if traced then
          Obs.Trace.instant ~cat:"net"
            ~args:[ ("seconds", Obs.Trace.Float d) ]
            "backoff";
        Clock.advance clock d
      end
    done;
    Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_giveups) endpoint);
    if traced then
      Obs.Trace.emit_end ~cat:"net"
        ~args:[ ("attempts", Obs.Trace.Int !attempts); ("ok", Obs.Trace.Bool false) ]
        endpoint;
    Error (Attempts_exhausted { attempts = !attempts })
  with Done r ->
    (match r with
    | Error _ ->
        Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_giveups) endpoint)
    | Ok _ -> ());
    if traced then
      Obs.Trace.emit_end ~cat:"net"
        ~args:
          [ ("attempts", Obs.Trace.Int !attempts);
            ("hedged", Obs.Trace.Bool !hedged);
            ("ok", Obs.Trace.Bool (Result.is_ok r)) ]
        endpoint;
    r
