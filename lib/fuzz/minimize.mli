(** Reproducer minimization by TLV-level delta debugging.

    A reduction is kept iff the reduced DER still evaluates to the same
    (class, signature) pair under {!Exec.eval}.  Deterministic; bounded
    by [max_evals] re-evaluations. *)

val minimize : ?threshold:int -> ?max_evals:int -> string -> string
(** [minimize der] is a (weakly) smaller DER with the same anomaly
    class and outcome signature; [der] itself when nothing smaller
    survives. *)
