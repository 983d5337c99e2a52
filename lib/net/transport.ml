(* Simulated transport: a handler function plays the server; the fault
   plan decides, purely per (seed, log, endpoint, page, attempt), what
   the wire does to the exchange.  All latency lands on the virtual
   clock. *)

type request = { log : string; endpoint : string; page : int }

type response =
  | Body of string
  | Retry_later of { after : float }
  | Error_status of int
  | Timed_out
  | Reset

type t = {
  plan : Fault.plan;
  clock : Clock.t;
  down : string -> bool;          (* permanently dead logs *)
  handler : request -> string;
}

let create ?(plan = Fault.default_plan) ?(down = fun _ -> false) ~clock handler
    =
  { plan; clock; down; handler }

let clock t = t.clock
let plan t = t.plan

let obs_calls =
  lazy
    (Obs.Registry.counter ~help:"Simulated transport calls (attempts)"
       "unicert_net_calls_total")

let obs_injected =
  lazy
    (Obs.Registry.labeled_counter ~label:"kind"
       ~help:"Transport faults injected by the seeded fault plan"
       "unicert_net_faults_injected_total")

let prewarm () =
  ignore (Lazy.force obs_calls);
  ignore (Lazy.force obs_injected)

let inject kind =
  Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_injected) kind)

let flip_byte body frac =
  let n = String.length body in
  if n = 0 then body
  else begin
    let pos = min (n - 1) (int_of_float (frac *. float_of_int n)) in
    let b = Bytes.of_string body in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
    Bytes.to_string b
  end

let truncate body frac =
  let n = String.length body in
  if n <= 1 then ""
  else String.sub body 0 (max 1 (min (n - 1) (int_of_float (frac *. float_of_int n))))

let call t ~attempt ~deadline (req : request) =
  Obs.Counter.inc (Lazy.force obs_calls);
  if t.down req.log then begin
    (* A dead endpoint burns the whole per-attempt deadline. *)
    Clock.advance t.clock deadline;
    inject "down";
    Reset
  end
  else begin
    let o =
      Fault.sample t.plan ~log:req.log ~endpoint:req.endpoint ~page:req.page
        ~attempt
    in
    match o.Fault.fault with
    | Some Fault.Timeout ->
        Clock.advance t.clock deadline;
        inject "timeout";
        Timed_out
    | Some Fault.Slow ->
        let latency = o.Fault.latency *. 25.0 in
        inject "slow";
        if latency > deadline then begin
          Clock.advance t.clock deadline;
          Timed_out
        end
        else begin
          Clock.advance t.clock latency;
          Body (t.handler req)
        end
    | Some Fault.Reset ->
        Clock.advance t.clock (o.Fault.latency *. 0.5);
        inject "reset";
        Reset
    | Some Fault.Rate_limit ->
        Clock.advance t.clock (o.Fault.latency *. 0.5);
        inject "rate_limit";
        Retry_later { after = o.Fault.retry_after }
    | Some Fault.Server_error ->
        Clock.advance t.clock o.Fault.latency;
        inject "server_error";
        Error_status o.Fault.status
    | Some Fault.Truncate ->
        Clock.advance t.clock o.Fault.latency;
        inject "truncate";
        Body (truncate (t.handler req) o.Fault.frac)
    | Some Fault.Corrupt_body ->
        Clock.advance t.clock o.Fault.latency;
        inject "corrupt_body";
        Body (flip_byte (t.handler req) o.Fault.frac)
    | None ->
        if o.Fault.latency > deadline then begin
          Clock.advance t.clock deadline;
          Timed_out
        end
        else begin
          Clock.advance t.clock o.Fault.latency;
          Body (t.handler req)
        end
  end
