(** Grammar-aware candidate generation for the differential fuzzer.

    Candidates extend {!Faults.Mutator}'s byte-level kinds with
    semantic operations over string types, encodings, and IDNA edge
    cases: string-type redeclaration, confusable label splices,
    oversized/invalid A-labels, NUL/control injection into every string
    context, and BMP/UTF-8 re-encodings.  Each candidate is a pure
    function of [(seed, round, index)] and the corpus snapshot, which
    is what makes campaigns shardable and resumable with byte-identical
    results. *)

type context = Cn | San

val context_name : context -> string

type spec = {
  op : string;       (** operation name, e.g. ["nul_ctrl"], ["byte_mutant:tag_swap"] *)
  context : context; (** which field carries the mutated payload *)
  declared : Asn1.Str_type.t;
  payload : string;  (** raw content octets placed in the field *)
  der : string;      (** the full candidate certificate encoding *)
}

val max_round_size : int
(** Upper bound on candidates per round; [(round, index)] packs
    injectively into one PRNG stream index below it. *)

(** A candidate before its certificate is built. *)
type draw =
  | Structured of {
      op : string;
      context : context;
      declared : Asn1.Str_type.t;
      payload : string;
    }
      (** one mutated field; its certificate is a pure function of
          [(context, declared, payload)] *)
  | Mutant of { op : string; der : string }
      (** a byte-level mutant of a corpus parent, already encoded *)

val draw : seed:int -> round:int -> index:int -> corpus:string array -> draw
(** [draw ~seed ~round ~index ~corpus] is the [index]-th candidate of
    [round] with its certificate not yet built: deterministic given the
    arguments.  [corpus] enables byte-level mutation of kept seeds;
    when empty only structured operations are drawn. *)

val spec_of_draw : draw -> spec
(** Builds a structured draw's certificate with {!build}. *)

val candidate : seed:int -> round:int -> index:int -> corpus:string array -> spec
(** [candidate ~seed ~round ~index ~corpus] is
    [spec_of_draw (draw ~seed ~round ~index ~corpus)]. *)

val build : context -> Asn1.Str_type.t -> string -> string
(** [build context st payload] is the DER of a test certificate whose
    mutated field is [payload] declared as [st] — the construction
    every structured operation uses, exposed for tests. *)
