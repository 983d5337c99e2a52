(** The differential harness: regenerates Table 4 (decoding methods for
    DN and GN) and Table 5 (standard violations in parsing DN and GN)
    by black-box probing of the nine library models with crafted
    test Unicerts. *)

type scenario = { declared : Asn1.Str_type.t; context : [ `Name | `Gn ] }

val scenarios : scenario list
(** The paper's Table 4 rows: PrintableString/IA5String/BMPString/
    UTF8String in Name, and IA5String in GeneralName. *)

val scenario_name : scenario -> string

type cell = {
  library : string;
  inferred : (Infer.method_ * Infer.handling) option;
  verdicts : Infer.verdict list;
  crashes : (string * int) list;
      (** exception constructor -> probe-crash count, most frequent
          first; [] when the model never raised *)
}

val decoding_matrix : unit -> (scenario * cell list) list
(** Table 4, regenerated by inference over real test certificates.
    A model call that raises counts once as a decode error (never also
    as a reject), is excluded from method inference, and surfaces as an
    [Infer.Crashing] verdict naming the exception constructor. *)

(** {2 Fault isolation}

    Model calls run behind an error boundary with a per-model circuit
    breaker: after {!Faults.Breaker.default_threshold} consecutive
    crashes the model is disabled for the rest of the owning scope's
    lifetime (outcomes read as crashes without invoking it) and
    reported degraded.  Injection campaigns address models as
    ["model:<name>"] via {!Faults.Injector.arm}. *)

(** Campaign-scoped breaker state.  Breakers used to be process-global:
    one fuzzing campaign that tripped a model's breaker silently
    degraded every later in-process {!decoding_matrix} call.  A [Scope]
    owns its own per-model breakers (one slot per model of
    {!Models.all}, read without a lock, plus a name-keyed table for
    any other model); the harness entry points
    default to {!Scope.default} (the process-wide scope the binaries'
    one-shot table passes use), while long-running campaigns create a
    private scope and pass it to {!observe_decode}. *)
module Scope : sig
  type t

  val create : ?threshold:int -> unit -> t
  (** A fresh, empty scope.  [threshold] seeds the trip threshold of
      every breaker later created in it
      (default {!Faults.Breaker.default_threshold}). *)

  val default : t
  (** The process-wide scope behind {!degraded_models},
      {!set_breaker_threshold}, {!reset_faults} and every harness call
      made without an explicit scope. *)

  val degraded : t -> (string * int) list
  (** Models whose breaker is open in this scope, with total crash
      counts, sorted. *)

  val set_threshold : t -> int -> unit
  (** Adjust existing breakers and the threshold future breakers of
      this scope are created with. *)

  val reset : t -> unit
  (** Close and zero every breaker of this scope. *)
end

type decode_outcome = Decoded of string | Rejected | Crashed of string

val observe_decode :
  ?scope:Scope.t -> Model.t -> (unit -> string option) -> decode_outcome
(** [observe_decode model f] runs one probe decode behind the error
    boundary: telemetry counted, injection ticked, crashes recorded on
    the model's breaker in [scope] (default {!Scope.default}).  Once
    the breaker is open the model is not invoked and the outcome reads
    [Crashed "circuit_open"].  A model of {!Models.all} (or a copy
    carrying its name) finds its counters, histogram and breaker by
    position, with no lock and no string hashing. *)

val degraded_models : unit -> (string * int) list
(** [Scope.degraded Scope.default]. *)

val set_breaker_threshold : int -> unit
val reset_faults : unit -> unit

type tolerance = Enforced | Tolerated | Not_tested

val tolerance_symbol : tolerance -> string

val illegal_char_rows :
  unit -> (string * (string * tolerance) list) list
(** Table 5 upper half: rows ["PrintableString in DN"],
    ["IA5String in DN"], ["BMPString in DN"], ["IA5String in GN"];
    columns are [(library, tolerance)]. *)

type escaping_verdict = Esc_ok | Esc_violation | Esc_exploited | Esc_na

val escaping_symbol : escaping_verdict -> string

val escaping_rows :
  unit -> (string * (string * escaping_verdict) list) list
(** Table 5 lower half: DN escaping per RFC 2253/4514/1779 and GN
    escaping per the same, probed with injection payloads. *)

val render : Format.formatter -> unit
(** Print both regenerated tables. *)
