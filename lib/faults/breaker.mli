(** Per-component circuit breakers.

    A breaker guards one named component (a lint, a parser model, a
    fetched CT log).  Consecutive failures trip it open; once open the
    component is skipped and reported as degraded instead of crashing
    every remaining certificate.  A success before the threshold resets
    the consecutive count (total crash counts keep accumulating for the
    degraded report).

    Without a [cooldown] the breaker is a latch: open stays open (the
    lint/parser semantics).  With [cooldown] it is the classic
    three-state machine: after the cooldown elapses (per caller-supplied
    time — the fetch layer feeds its virtual clock) {!allow} admits one
    half-open probe; probe success closes the breaker, probe failure
    re-opens it.  Every transition is counted in
    [unicert_breaker_transitions_total{transition}]. *)

type t

type state = Closed | Open | Half_open

val default_threshold : int
(** 5 — consecutive crashes before the circuit opens. *)

val create : ?threshold:int -> ?cooldown:float -> string -> t
(** [cooldown] (seconds of caller time, see {!allow}) enables the
    half-open recovery path; omitted, the breaker latches open. *)

val name : t -> string
val set_threshold : t -> int -> unit
(** Adjust the trip threshold (policy wiring).  Lowering it below the
    current consecutive count trips on the next failure, not
    retroactively. *)

val success : t -> unit
(** Record a clean call: resets the consecutive-failure count; closes a
    half-open breaker (counted as [half_open_closed]).  No-op while
    open. *)

val failure : ?now:float -> t -> unit
(** Record a crash; trips the breaker when [threshold] consecutive
    failures accumulate (counted in
    [unicert_fault_breaker_trips_total{target}] and as a [closed_open]
    transition).  A half-open probe failure re-opens immediately
    ([half_open_open]).  [now] stamps the cooldown window (only
    meaningful with a cooldown). *)

val allow : ?now:float -> t -> bool
(** Whether a call may proceed.  Closed and half-open: yes.  Open
    without cooldown: no, forever.  Open with cooldown: no until
    [cooldown] seconds after the trip, then the breaker moves to
    half-open ([open_half_open]) and admits the probe. *)

val state : t -> state
val tripped : t -> bool
(** [true] once tripped and not (yet) closed again. *)

val crashes : t -> int
(** Total failures recorded over the breaker's lifetime. *)

val consecutive : t -> int

val trips : t -> int
(** How many times the breaker has opened (initial trips plus half-open
    probe failures) — the fetch layer abandons a log past a trip
    budget. *)

val cooldown_until : t -> float option
(** When open with a cooldown: the instant {!allow} will admit a probe.
    [None] otherwise. *)

val reset : t -> unit
(** Close the breaker and zero all counts (test support). *)

val prewarm : unit -> unit
(** Force the module's lazy telemetry handles.  Call once from the
    coordinating domain before spawning workers — [Lazy.force] is not
    domain-safe in OCaml 5. *)
