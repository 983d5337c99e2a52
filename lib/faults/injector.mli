(** The fault-injection harness: make any instrumented call site
    (a registered lint, a parser model) raise or hang on a schedule.

    Targets are plain strings — lint names and model names as the
    instrumented modules report them.  Injection is deterministic:
    [every = 3] fires on the 3rd, 6th, 9th, … tick of that target.
    The whole module is inert until the first {!arm}; instrumented hot
    paths guard their tick with {!active}, a single flag read. *)

exception Injected_crash of string
(** Raised by {!tick} for a [Crash]-armed target (payload: target). *)

exception Injected_hang of string
(** Raised by {!tick} for a [Hang]-armed target once the bounded busy
    loop expires without a watchdog interrupting it. *)

type mode =
  | Crash  (** raise {!Injected_crash} *)
  | Hang
      (** busy-loop (allocating, so signals are delivered) for up to
          2 seconds, then raise {!Injected_hang}.  Under
          {!Watchdog.with_timeout} the watchdog fires first. *)

val arm : ?mode:mode -> every:int -> string -> unit
(** [arm ~every target] schedules a fault on every [every]-th tick of
    [target] (default mode [Crash]).  @raise Invalid_argument if
    [every < 1]. *)

val reset : unit -> unit
(** Disarm everything and zero all tick counts. *)

val active : unit -> bool
(** Cheap global check: true when at least one target is armed. *)

val tick : string -> unit
(** Count one invocation of [target]; raises when the schedule says so.
    Call only under an {!active} guard to keep clean paths free. *)

val parse_spec : string -> (string * int, string) result
(** Parse a CLI ["TARGET:EVERY"] spec (e.g. ["u_cn_in_san:3"]). *)

val prewarm : unit -> unit
(** Force the module's lazy telemetry handles.  Call once from the
    coordinating domain before spawning workers — [Lazy.force] is not
    domain-safe in OCaml 5. *)
