let histogram_name = "unicert_span_seconds"

let family registry =
  Registry.labeled_histogram ?registry ~label:"span"
    ~help:"Wall-clock time per instrumented span" histogram_name

(* A declared span resolves its histogram child on first use and keeps
   it: resolving takes a mutex-guarded probe in the registry and
   another in the family, which the per-certificate stages would
   otherwise pay on every call.  Declaring registers nothing, so a span
   that never runs never shows up in an export.  The cell is atomic:
   two domains racing on the first use both store the same child,
   because the family's find-or-create is itself atomic. *)
type t = {
  name : string;
  registry : Registry.t option;
  hist : Histogram.t option Atomic.t;
}

let v ?registry name = { name; registry; hist = Atomic.make None }

let hist t =
  match Atomic.get t.hist with
  | Some h -> h
  | None ->
      let h = Histogram.Labeled.get (family t.registry) t.name in
      Atomic.set t.hist (Some h);
      h

(* The nesting stack is domain-local: a global ref would interleave the
   stacks of concurrent worker domains, corrupting [current] and the
   pop in [finish].  Durations still land in the shared (atomic)
   histogram family, so per-span totals aggregate across domains. *)
let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let finish t stack gc0 traced t0 =
  let dt = Unix.gettimeofday () -. t0 in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  Histogram.observe (hist t) dt;
  (match gc0 with
  | Some before -> Profile.record_gc ?registry:t.registry t.name before
  | None -> ());
  if traced then Trace.emit_end ~cat:"stage" t.name

let run t f =
  let stack = stack () in
  stack := t.name :: !stack;
  (* Tracing and profiling ride along when enabled: a span becomes a
     Begin/End pair on the emitting domain's trace track, and the GC
     work inside it is attributed to its name.  Both checks are one
     atomic load when the features are off. *)
  let traced = Trace.enabled () in
  if traced then Trace.emit_begin ~cat:"stage" t.name;
  let gc0 = if Profile.enabled () then Some (Profile.gc_snapshot ()) else None in
  let t0 = Unix.gettimeofday () in
  match f () with
  | r ->
      finish t stack gc0 traced t0;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish t stack gc0 traced t0;
      Printexc.raise_with_backtrace e bt

let with_ ?registry name f = run (v ?registry name) f

let current () = !(stack ())

let child registry name = Histogram.Labeled.get (family registry) name
let sum ?registry name = Histogram.sum (child registry name)
let count ?registry name = Histogram.count (child registry name)
