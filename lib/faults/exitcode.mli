(** The exit-code contract shared by every binary, and the precedence
    law for runs that earn more than one code.

    Codes: [0] ok, [1] output-flush failure, [2] unusable input
    (validation, store identity), [3] aborted, [4] completed but
    degraded.  Precedence, most diagnostic first:

    {v 2 > 3 > 4 > 1 > 0 v}

    so a run that is both degraded and hit a store identity error
    exits 2, and a degraded run whose metrics file could not be
    written still exits 4. *)

val worst : int -> int -> int
(** The more severe of two codes under the precedence law.
    Commutative and associative; [0] is the identity. *)
