(** Differential evaluation: one candidate DER against our [x509]
    parser (strict and lenient) and all nine [Tlsparsers] models, under
    a private per-evaluation {!Tlsparsers.Harness.Scope}.

    The outcome signature is the campaign's coverage signal: it encodes
    the disagreement *shape* (partition labels over model outputs,
    accept/reject/crash tokens, IDNA and content facets) rather than
    payload bytes, so it is stable under reproducer minimization and a
    pure function of the DER. *)

type eval = {
  strict_ok : bool;   (** our parser, DER-strict config *)
  lenient_ok : bool;  (** our parser, lenient config *)
  cn : (Asn1.Str_type.t * string) option;
      (** declared type + raw octets of the subject CN, when parsed *)
  san : string option;  (** first SAN dNSName payload, when present *)
  cn_tokens : string;
      (** one char per model, fixed order: ['a'..] partition labels
          (same letter = same decoded output), ['R'] reject, ['C']
          crash, ['-'] unsupported, ['X'] not probed *)
  san_tokens : string;
  nul : bool;   (** some model's decoded output contains NUL *)
  ctl : bool;   (** ... contains a C0 control other than NUL *)
  conf : bool;  (** ... contains a non-ASCII confusable code point *)
  idna : string;
      (** sorted IDNA issue names of the SAN payload joined by [+],
          ["-"] when clean or absent *)
  crashes : (string * int) list;
      (** real model crashes this evaluation (circuit-open excluded) *)
  signature : string;  (** the full outcome-signature string *)
  cls : string;        (** anomaly class, ["agreement"] when none *)
}

val eval : ?threshold:int -> string -> eval
(** [eval der] probes one candidate.  [threshold] seeds the private
    scope's circuit breakers.  Pure in [der].

    [der] is parsed once with {!Asn1.Value.strict}; an [Ok] result is
    also the lenient result, and {!Asn1.Value.lenient} runs only when
    the strict parse fails.  This is exact: the two configs differ only
    in [forbid_nonminimal_length], which adds one failure (a long-form
    length that fits a shorter form) and changes nothing else, so a
    strict success is a lenient success with an equal certificate. *)

val beyond_tables : string -> bool
(** Classes outside the paper's Table-4/5 taxonomy. *)

val timeout_eval : string -> eval
(** Synthetic outcome for a watchdog overrun in stage [s]. *)

val crash_eval : string -> eval
(** Synthetic outcome for a harness-level exception. *)
