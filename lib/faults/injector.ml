exception Injected_crash of string
exception Injected_hang of string

type mode = Crash | Hang

let hang_bound = 2.0

type slot = { mode : mode; every : int; mutable ticks : int }

(* One global mutex guards the slot table and the per-slot tick
   counters: campaigns are rare and tick only runs when a campaign is
   armed, so the lock is never on the clean path ([active] stays a
   single atomic read). *)
let lock = Mutex.create ()
let slots : (string, slot) Hashtbl.t = Hashtbl.create 8
let any = Atomic.make false

let obs_injected =
  lazy
    (Obs.Registry.labeled_counter ~label:"target"
       ~help:"Faults fired by the injection harness"
       "unicert_fault_injections_total")

let prewarm () = ignore (Lazy.force obs_injected)

let arm ?(mode = Crash) ~every target =
  if every < 1 then invalid_arg "Faults.Injector.arm: every must be >= 1";
  Mutex.protect lock (fun () ->
      Hashtbl.replace slots target { mode; every; ticks = 0 };
      Atomic.set any true)

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset slots;
      Atomic.set any false)

let active () = Atomic.get any

(* An allocating busy loop: OCaml delivers pending signals at
   allocation points, so a Watchdog alarm interrupts this "hang" on the
   main domain; on worker domains it expires at [hang_bound] and the
   deadline check converts the raise. *)
let hang target =
  let t0 = Unix.gettimeofday () in
  let sink = ref 0 in
  while Unix.gettimeofday () -. t0 < hang_bound do
    sink := !sink + Sys.opaque_identity (List.length [ 1; 2; 3 ])
  done;
  raise (Injected_hang target)

let tick target =
  let due =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt slots target with
        | None -> None
        | Some s ->
            s.ticks <- s.ticks + 1;
            if s.ticks mod s.every = 0 then Some s.mode else None)
  in
  match due with
  | None -> ()
  | Some mode -> (
      Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_injected) target);
      match mode with
      | Crash -> raise (Injected_crash target)
      | Hang -> hang target)

let parse_spec spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "bad injection spec %S (want TARGET:EVERY)" spec)
  | Some i -> (
      let target = String.sub spec 0 i in
      let n = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt n with
      | Some every when every >= 1 && target <> "" -> Ok (target, every)
      | _ -> Error (Printf.sprintf "bad injection spec %S (want TARGET:EVERY)" spec))
