(* All mutable cells are atomics: breakers are shared process-wide (one
   per lint / parser model / fetched log) and worker domains hit
   [success]/[failure] concurrently.  State changes go through CAS so
   exactly one domain records each transition.

   Two operating modes share the type:
   - [cooldown = None] (default): the legacy latch — once open, open
     forever; the component is skipped and reported degraded.
   - [cooldown = Some s]: after [s] seconds of caller-supplied time
     (the fetch layer feeds its virtual clock) an open breaker admits
     one half-open probe; probe success closes it, probe failure
     re-opens it. *)

type state = Closed | Open | Half_open

type t = {
  name : string;
  threshold : int Atomic.t;
  cooldown : float option;
  consecutive : int Atomic.t;
  crashes : int Atomic.t;
  trips : int Atomic.t;
  state : state Atomic.t;
  opened_at : float Atomic.t;
}

let default_threshold = 5

let create ?(threshold = default_threshold) ?cooldown name =
  if threshold < 1 then invalid_arg "Faults.Breaker.create: threshold < 1";
  (match cooldown with
  | Some s when s <= 0.0 -> invalid_arg "Faults.Breaker.create: cooldown <= 0"
  | _ -> ());
  { name; threshold = Atomic.make threshold; cooldown;
    consecutive = Atomic.make 0; crashes = Atomic.make 0;
    trips = Atomic.make 0; state = Atomic.make Closed;
    opened_at = Atomic.make 0.0 }

let name t = t.name
let threshold t = Atomic.get t.threshold

let set_threshold t n =
  if n < 1 then invalid_arg "Faults.Breaker.set_threshold: threshold < 1";
  Atomic.set t.threshold n

let obs_trips =
  lazy
    (Obs.Registry.labeled_counter ~label:"target"
       ~help:"Circuit breakers tripped open by consecutive crashes"
       "unicert_fault_breaker_trips_total")

let obs_transitions =
  lazy
    (Obs.Registry.labeled_counter ~label:"transition"
       ~help:"Circuit breaker state transitions (closed_open, open_half_open, half_open_closed, half_open_open)"
       "unicert_breaker_transitions_total")

let prewarm () =
  ignore (Lazy.force obs_trips);
  ignore (Lazy.force obs_transitions)

let transition which =
  Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_transitions) which)

let success t =
  match Atomic.get t.state with
  | Closed ->
      (* Read before writing: the common case has no failures to clear,
         and a store there would be an atomic exchange on every call.
         Skipping it is the linearization in which this success comes
         before any failure racing with it. *)
      if Atomic.get t.consecutive <> 0 then Atomic.set t.consecutive 0
  | Half_open ->
      if Atomic.compare_and_set t.state Half_open Closed then begin
        Atomic.set t.consecutive 0;
        transition "half_open_closed"
      end
  | Open -> ()

let failure ?(now = 0.0) t =
  ignore (Atomic.fetch_and_add t.crashes 1);
  let consecutive = 1 + Atomic.fetch_and_add t.consecutive 1 in
  match Atomic.get t.state with
  | Half_open ->
      (* The probe failed: straight back to open, new cooldown window. *)
      if Atomic.compare_and_set t.state Half_open Open then begin
        Atomic.set t.opened_at now;
        ignore (Atomic.fetch_and_add t.trips 1);
        transition "half_open_open"
      end
  | Closed ->
      if
        consecutive >= Atomic.get t.threshold
        && Atomic.compare_and_set t.state Closed Open
      then begin
        Atomic.set t.opened_at now;
        ignore (Atomic.fetch_and_add t.trips 1);
        transition "closed_open";
        Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_trips) t.name)
      end
  | Open -> ()

let allow ?(now = 0.0) t =
  match Atomic.get t.state with
  | Closed -> true
  | Half_open -> true
  | Open -> (
      match t.cooldown with
      | None -> false
      | Some cd ->
          if
            now -. Atomic.get t.opened_at >= cd
            && Atomic.compare_and_set t.state Open Half_open
          then begin
            transition "open_half_open";
            true
          end
          else Atomic.get t.state = Half_open)

let state t = Atomic.get t.state
let tripped t = Atomic.get t.state <> Closed
let crashes t = Atomic.get t.crashes
let consecutive t = Atomic.get t.consecutive
let trips t = Atomic.get t.trips

let cooldown_until t =
  match (t.cooldown, Atomic.get t.state) with
  | Some cd, Open -> Some (Atomic.get t.opened_at +. cd)
  | _ -> None

let reset t =
  Atomic.set t.consecutive 0;
  Atomic.set t.crashes 0;
  Atomic.set t.trips 0;
  Atomic.set t.state Closed
