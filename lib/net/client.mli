(** Retrying client over the simulated transport.

    One [request] is a full retry loop: token-bucket admission, the
    per-attempt transport call, Retry-After honouring, capped
    decorrelated-jitter backoff, a per-request virtual-time budget, and
    optional hedging for tail pages.  The backoff stream is keyed by
    (transport seed, log, endpoint, page), so reruns replay identical
    schedules. *)

type 'a fetched = {
  body : 'a;        (** the body as [open_] returned it *)
  attempts : int;   (** transport calls made, hedges included *)
  hedged : bool;
  waited : float;   (** virtual seconds from admission to outcome *)
}

type error =
  | Attempts_exhausted of { attempts : int }
  | Budget_exhausted of { attempts : int; waited : float }

val describe : error -> string

val request :
  policy:Policy.t ->
  ?bucket:Bucket.t ->
  ?hedge:bool ->
  open_:(string -> 'a option) ->
  transport:Transport.t ->
  log:string ->
  endpoint:string ->
  page:int ->
  unit ->
  ('a fetched, error) result
(** [open_] checks and parses a body (e.g. a sealed frame's checksum
    check); [None] marks a torn body, which counts as a retryable
    fault.  Each body received is opened at most once.  [hedge] fires
    one duplicate attempt (disjoint fault namespace) when the primary
    attempt fails or runs past [policy.hedge_after]. *)

val prewarm : unit -> unit
(** Force lazy telemetry handles before spawning worker domains. *)
