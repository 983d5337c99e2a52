(** The structured fault taxonomy.

    Every failure a data path can hit is one of six classes; boundary
    code converts raw exceptions and string errors into this type so
    sinks (quarantine, telemetry, reports) never have to re-parse
    messages.  [Invalid_argument] stays reserved for programmer errors
    and is deliberately absent here. *)

type t =
  | Decode_error of { offset : int option; detail : string }
      (** Undecodable input bytes (DER truncation, corruption, layout). *)
  | Lint_crash of { lint : string; exn_name : string; detail : string }
      (** A registered lint raised instead of returning a status. *)
  | Model_crash of { model : string; exn_name : string; detail : string }
      (** A parser model raised instead of accepting/rejecting. *)
  | Timeout of { stage : string; seconds : float }
      (** A watchdog interrupted a hung stage. *)
  | Resource of { stage : string; detail : string }
      (** Stack/heap exhaustion or I/O failure underneath a stage. *)
  | Integrity of { log : string; detail : string }
      (** Entries whose log served an unverifiable view (split view /
          root mismatch): the bytes may be fine, but their provenance
          cannot be trusted, so they are quarantined, not ingested. *)

val class_name : t -> string
(** One of ["decode_error"], ["lint_crash"], ["model_crash"],
    ["timeout"], ["resource"], ["integrity"] — stable keys used for
    telemetry labels and the quarantine sidecar. *)

val detail : t -> string
(** The human-readable payload (no class prefix). *)

val to_string : t -> string
(** ["class: detail"]. *)

val exn_name : exn -> string
(** Constructor name of an exception (e.g. ["Failure"],
    ["Stack_overflow"], ["Faults__Injector.Injected_crash"]) — recorded
    in verdicts so reports can distinguish crash causes. *)

val of_exn : stage:string -> exn -> t
(** Classify a caught exception: [Stack_overflow]/[Out_of_memory] map
    to [Resource], {!Watchdog}-style timeouts should be classified at
    the catch site; everything else becomes a crash of [stage]'s kind
    via {!Lint_crash} when [stage] names a lint — callers that know the
    precise kind should build the constructor directly.  This helper
    returns [Resource] for resource exhaustion and [Decode_error] with
    the printed exception otherwise. *)

val of_class : class_:string -> detail:string -> t
(** Rehydrate an error from its stored [(class_name, detail)] pair —
    the inverse of {!class_name}/{!detail}, used when replaying fault
    records out of the on-disk store.  Best-effort: detail layouts the
    renderer never produces keep their text under the same class (or
    degrade to [Decode_error] for unknown classes). *)

val observe : t -> unit
(** Count the event in {!Obs.Registry.default} under
    [unicert_fault_errors_total{class="..."}]. *)

val prewarm : unit -> unit
(** Force the module's lazy telemetry handles.  Call once from the
    coordinating domain before spawning workers — [Lazy.force] is not
    domain-safe in OCaml 5. *)
