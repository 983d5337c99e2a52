(* The repo-wide exit-code contract and its precedence law.

   Codes: 0 ok, 1 output-flush failure (metrics/trace unwritable),
   2 unusable input (validation, store identity, bad flags), 3 aborted
   (fail-fast / max-errors / nothing salvageable), 4 completed but
   degraded (incomplete fetch coverage, damaged-but-usable store).

   When one run earns several, the most diagnostic wins:

       2 > 3 > 4 > 1 > 0

   A validation error explains everything downstream of it, an abort
   explains the missing coverage, and degradation outranks a mere
   flush failure because it is about the run's *result*, not its
   reporting.  Binaries accumulate codes with {!worst} and exit once,
   after flushing metrics and traces on every path. *)

let precedence = [ 2; 3; 4; 1; 0 ]

let rank code =
  let rec go i = function
    | [] -> -1 (* unknown codes outrank everything: never mask them *)
    | c :: _ when c = code -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 precedence

let worst a b = if rank a <= rank b then a else b
