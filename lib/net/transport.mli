(** Simulated transport.

    A handler function plays the server; the seeded {!Fault.plan}
    decides — purely per [(seed, log, endpoint, page, attempt)] — what
    the wire does to each exchange.  All latency advances the virtual
    clock, never the wall clock. *)

type request = { log : string; endpoint : string; page : int }

type response =
  | Body of string
      (** a served body — possibly truncated or bit-corrupted; clients
          must validate the trailing checksum line *)
  | Retry_later of { after : float }
      (** HTTP 429 carrying a simulated Retry-After *)
  | Error_status of int  (** HTTP 500/503 *)
  | Timed_out            (** per-attempt deadline exceeded *)
  | Reset                (** connection reset *)

type t

val create :
  ?plan:Fault.plan ->
  ?down:(string -> bool) ->
  clock:Clock.t ->
  (request -> string) ->
  t
(** [down log = true] marks a log persistently dead: every call burns
    its full deadline and resets — the breaker-abandonment path. *)

val clock : t -> Clock.t
val plan : t -> Fault.plan

val call : t -> attempt:int -> deadline:float -> request -> response
(** One attempt.  Counted in [unicert_net_calls_total]; injected faults
    in [unicert_net_faults_injected_total{kind}]. *)

val prewarm : unit -> unit
(** Force lazy telemetry handles before spawning worker domains. *)
