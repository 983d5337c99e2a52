(* The server side of a line/framed query protocol: a handler produces
   payload lines for one request line; the listener seals them into a
   framed body and — under a fault plan — may mangle the frame the way
   the simulated transport does.  Clients validate the seal and retry,
   so serving exercises the same end-to-end integrity discipline as
   the fetch path.  Framing is injected ([seal]) because the wire
   format lives above this library. *)

type t = {
  plan : Fault.plan option;
  seal : string list -> string;
  handler : client:string -> string -> string list;
  mutable served : int;
  mu : Mutex.t;
}

let obs_requests =
  lazy
    (Obs.Registry.counter ~help:"Query requests served by the listener"
       "unicert_listener_requests_total")

let obs_injected =
  lazy
    (Obs.Registry.labeled_counter ~label:"kind"
       ~help:"Response faults injected by the listener's seeded plan"
       "unicert_listener_faults_injected_total")

let prewarm () =
  ignore (Lazy.force obs_requests);
  ignore (Lazy.force obs_injected)

let create ?plan ~seal handler =
  { plan; seal; handler; served = 0; mu = Mutex.create () }

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
  else
    String.sub body 0 (max 1 (min (n - 1) (int_of_float (frac *. float_of_int n))))

let inject kind =
  Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_injected) kind)

let serve t ~client ~seq ?(attempt = 1) line =
  Mutex.lock t.mu;
  t.served <- t.served + 1;
  Mutex.unlock t.mu;
  Obs.Counter.inc (Lazy.force obs_requests);
  let body = t.seal (t.handler ~client line) in
  match t.plan with
  | None -> body
  | Some plan -> (
      let o = Fault.sample plan ~log:client ~endpoint:line ~page:seq ~attempt in
      (* Only byte-level mangling makes sense on an in-process pipe:
         truncation and corruption damage the frame, resets and
         timeouts drop it entirely; latency-only kinds serve intact. *)
      match o.Fault.fault with
      | Some Fault.Truncate ->
          inject "truncate";
          truncate body o.Fault.frac
      | Some Fault.Corrupt_body ->
          inject "corrupt_body";
          flip_byte body o.Fault.frac
      | Some Fault.Reset ->
          inject "reset";
          ""
      | Some Fault.Timeout ->
          inject "timeout";
          ""
      | Some (Fault.Slow | Fault.Rate_limit | Fault.Server_error) | None ->
          body)
