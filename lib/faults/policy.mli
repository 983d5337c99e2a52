(** Run-level fault policy: how much failure a run tolerates and where
    the wreckage goes.  Assembled from CLI flags by the binaries and
    threaded into [Core.Pipeline]. *)

type t = {
  max_errors : int option;
      (** abort after this many per-certificate errors; [None] = unbounded.
          The budget spans an abort and its resume: faults held in the
          resumed checkpoint count toward it, whatever the jobs value. *)
  fail_fast : bool;  (** abort on the first per-certificate error *)
  quarantine_dir : string option;
      (** write offending certs + errors to a sidecar here *)
  timeout_seconds : float option;
      (** per-certificate watchdog; [None] = no watchdog *)
  breaker_threshold : int;
      (** consecutive crashes before a lint/model breaker opens *)
  checkpoint_file : string option;
  checkpoint_every : int;  (** certificates between checkpoint saves *)
}

val default : t
(** Unbounded errors, no fail-fast, no quarantine, no watchdog,
    {!Breaker.default_threshold}, no checkpointing. *)
