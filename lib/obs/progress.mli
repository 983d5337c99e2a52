(** Throttled progress reporting to stderr: a single rewritten line with
    count, rate and (when a total is known) percentage and ETA.

    Reporting is active only when stderr is a TTY and [OBS_QUIET] is
    unset/empty; {!set_override} (driven by the binaries'
    [--progress] / [--no-progress] flags) beats both checks.  Inactive
    reporters cost one integer add per {!tick}. *)

type t

val set_override : bool option -> unit
(** [Some true] forces reporting on, [Some false] off, [None] restores
    the TTY + [OBS_QUIET] autodetection.  Applies to reporters created
    afterwards. *)

val create : ?total:int -> ?out:out_channel -> ?interval:float ->
  label:string -> unit -> t
(** [create ~label ()] starts a reporter.  [total] enables percentage
    and ETA; [out] defaults to stderr (tests point it elsewhere);
    [interval] is the minimum seconds between emitted lines
    (default 0.25). *)

val active : t -> bool
(** Whether this reporter will ever write. *)

val tick : ?by:int -> t -> unit
val finish : t -> unit
(** Emit a final line (if active and anything was counted) and a
    newline, so subsequent output starts clean. *)

val count : t -> int
