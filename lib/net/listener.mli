(** Server side of a framed line protocol.

    The monitor daemon's query loop: a handler turns one request line
    into payload lines, the listener seals them into a framed body
    (the framing function is injected — the wire format lives above
    this library), and an optional {!Fault.plan} mangles responses the
    way the simulated transport mangles fetch pages.  Fault sampling
    is pure per [(client, line, seq, attempt)], so a faulty serving
    run is byte-identical across reruns and job counts; clients
    validate the seal and retry with the same [seq]. *)

type t

val create :
  ?plan:Fault.plan ->
  seal:(string list -> string) ->
  (client:string -> string -> string list) ->
  t

val serve : t -> client:string -> seq:int -> ?attempt:int -> string -> string
(** Serve one request line.  [seq] is the client's own request
    sequence number (retries of the same request keep it and bump
    [attempt]).  Returns the sealed frame — possibly truncated,
    corrupted, or dropped to [""] by the fault plan. *)

val prewarm : unit -> unit
(** Force lazy telemetry handles before spawning worker domains. *)
