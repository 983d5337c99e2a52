(** The coverage-guided differential fuzzing campaign.

    Round-based: each round fixes the corpus snapshot, generates
    candidates pure in [(seed, round, index)], evaluates them sharded
    under {!Par} (evaluation is pure in the candidate DER), merges in
    index order, and folds corpus/coverage/findings sequentially.  Same
    seed, budget and round size yield byte-identical findings for any
    [jobs] — except when a watchdog timeout actually fires or
    [--fault-hang] injection is armed (both documented exemptions).

    Each distinct structured candidate is built and evaluated once per
    campaign: a repeat of an evaluated [(context, declared type,
    payload)] key reuses the outcome, and counts in
    [unicert_fuzz_repeats_total] as well as [unicert_fuzz_execs_total].
    The per-model [unicert_parser_*] counters see only the probes of
    candidates actually evaluated. *)

type config = {
  seed : int;
  budget : int;  (** total candidate executions *)
  round_size : int;
  jobs : int;
  timeout : float;  (** per-candidate watchdog seconds; 0 = off *)
  max_seconds : float option;  (** wall-clock budget; [None] = unlimited *)
  breaker_threshold : int;
  checkpoint : string option;
  resume : bool;
  corpus_cap : int;
  minimize_findings : bool;  (** minimize each finding before returning *)
}

val default_config : config

type status = Completed | Wall_abort of float

type t = {
  status : status;
  executions : int;
  rounds : int;
  findings : Findings.finding list;  (** discovery order *)
  corpus_size : int;
  signatures : int;  (** distinct outcome signatures observed *)
  degraded : (string * int) list;
      (** models whose real-crash count reached the breaker threshold
          during the campaign *)
  first_disagreement : int option;
      (** execution number of the first non-agreement outcome *)
}

val run : ?table_cap:int -> config -> t
(** Runs the campaign.  [table_cap] (default 16,384; settable so tests
    can reach it) bounds the campaign's table of evaluated keys; past
    it, new keys are evaluated every time they are drawn.  The table is
    not used when [timeout > 0] or a {!Faults.Injector} target is
    armed, since evaluation is then not a pure function of the
    candidate.  Saves a checkpoint after every round when
    [checkpoint] is set; [resume] reloads it (a checkpoint from a
    different seed/budget is ignored with a warning).
    @raise Invalid_argument on a non-positive or oversized
    [round_size], or a negative [budget].
    @raise Faults.Checkpoint.Invalid when resuming from a corrupt
    checkpoint file. *)
