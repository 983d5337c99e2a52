type arg = Str of string | Int of int | Float of float | Bool of bool

type phase = Begin | End | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : float;
  tid : int;
  args : (string * arg) list;
}

let default_ring = 1 lsl 18
let default_sample = 16

(* [on] is the only state the disabled fast path touches: every
   emitter is one atomic load when tracing is off.  Everything else
   lives behind [lock]; pushes are short critical sections and only
   happen while tracing, where the (sampled) event rate is a tiny
   fraction of the certificate rate. *)
let on = Atomic.make false
let sample_period = Atomic.make default_sample
let lock = Mutex.create ()

(* The ring is a struct of arrays, not an [event array]: a per-event
   record stored into a long-lived array is young when written and
   live at the next minor collection, so every traced event would be
   promoted to the major heap and become major garbage on eviction —
   measured at ~4x the cost of the store itself.  Flat int/float/
   string slots promote nothing (span names and categories are static
   literals; only the rare args list allocates). *)
type ring = {
  mutable name : string array;
  mutable cat : string array;
  mutable ph : int array;
  mutable ts : float array;
  mutable tid : int array;
  mutable args : (string * arg) list array;
  mutable cap : int;
  mutable start : int;  (** index of the oldest event *)
  mutable len : int;
  mutable evicted : int;
}

let rb =
  { name = [||]; cat = [||]; ph = [||]; ts = [||]; tid = [||];
    args = [||]; cap = 0; start = 0; len = 0; evicted = 0 }

let ph_to_int = function
  | Begin -> 0
  | End -> 1
  | Instant -> 2

let ph_of_int = function
  | 0 -> Begin
  | 1 -> End
  | _ -> Instant
let out_file = ref None
let epoch = ref 0.
let dirty = ref false
let hooked = ref false

let enabled () = Atomic.get on
let dropped () = Mutex.protect lock (fun () -> rb.evicted)

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6
let tid () = (Domain.self () :> int)

(* Manual lock/unlock: nothing in the critical section allocates or
   raises, and [Mutex.protect]'s closure would itself be a young
   allocation per event. *)
let emit ?(args = []) ph ~cat name =
  if Atomic.get on then begin
    let ts = now_us () and tid = tid () in
    Mutex.lock lock;
    let cap = rb.cap in
    if cap > 0 then begin
      let i =
        if rb.len = cap then begin
          (* Full: the oldest slot is recycled for the newest event. *)
          let i = rb.start in
          rb.start <- (rb.start + 1) mod cap;
          rb.evicted <- rb.evicted + 1;
          i
        end
        else begin
          let i = (rb.start + rb.len) mod cap in
          rb.len <- rb.len + 1;
          i
        end
      in
      rb.name.(i) <- name;
      rb.cat.(i) <- cat;
      rb.ph.(i) <- ph_to_int ph;
      rb.ts.(i) <- ts;
      rb.tid.(i) <- tid;
      rb.args.(i) <- args;
      dirty := true
    end;
    Mutex.unlock lock
  end

let emit_begin ?args ~cat name = emit ?args Begin ~cat name
let emit_end ?args ~cat name = emit ?args End ~cat name
let instant ?args ~cat name = emit ?args Instant ~cat name
let span ?args ~cat name f =
  if not (Atomic.get on) then f ()
  else begin
    emit_begin ?args ~cat name;
    Fun.protect ~finally:(fun () -> emit_end ~cat name) f
  end

(* For call sites that already maintain their own invocation counter:
   one atomic load when tracing is off, two plus a [mod] when on —
   cheaper than the DLS tick of [sampled_span] on paths hit hundreds
   of thousands of times per run. *)
let sample_hit tick =
  Atomic.get on
  &&
  let p = Atomic.get sample_period in
  p <= 1 || tick mod p = 0

(* Per-domain call counter for sampling: deterministic per domain and
   lock-free.  The counter only advances while tracing is on, so the
   sampled spans of a run are a stable subset for a given --jobs. *)
let tick_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let sampled_span ?args ~cat name f =
  if not (Atomic.get on) then f ()
  else begin
    let p = Atomic.get sample_period in
    let hit =
      p <= 1
      ||
      let t = Domain.DLS.get tick_key in
      incr t;
      !t mod p = 0
    in
    if hit then span ?args ~cat name f else f ()
  end

(* --- snapshot & repair ------------------------------------------------ *)

let raw_events () =
  Mutex.protect lock (fun () ->
      List.init rb.len (fun k ->
          let i = (rb.start + k) mod rb.cap in
          {
            name = rb.name.(i);
            cat = rb.cat.(i);
            ph = ph_of_int rb.ph.(i);
            ts = rb.ts.(i);
            tid = rb.tid.(i);
            args = rb.args.(i);
          }))

(* Eviction can orphan an End (its Begin fell off the ring) or leave a
   Begin open (snapshot taken mid-span).  Repair per domain track:
   orphan Ends are dropped, open Begins get a synthetic closing End —
   innermost first — at the latest buffered timestamp, so every track
   stays balanced and monotonic for the Chrome importer. *)
let balance (evs : event list) =
  let stacks : (int, event list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add stacks tid r;
        r
  in
  let max_ts = List.fold_left (fun m (e : event) -> Float.max m e.ts) 0. evs in
  let kept =
    List.filter
      (fun (e : event) ->
        match e.ph with
        | Begin ->
            let st = stack_of e.tid in
            st := e :: !st;
            true
        | End -> (
            let st = stack_of e.tid in
            match !st with
            | _ :: rest ->
                st := rest;
                true
            | [] -> false)
        | Instant -> true)
      evs
  in
  let closers =
    Hashtbl.fold
      (fun _tid st acc ->
        List.fold_left
          (fun acc (b : event) ->
            { b with ph = End; ts = max_ts; args = [] } :: acc)
          acc !st)
      stacks []
  in
  kept @ List.rev closers

let snapshot () = balance (raw_events ())

(* --- exporters -------------------------------------------------------- *)

let ph_string = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"

let arg_json = function
  | Str s -> Jsonv.escape s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.9g" f
  | Bool b -> if b then "true" else "false"

let event_json (e : event) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\": %s, \"cat\": %s, \"ph\": \"%s\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d"
       (Jsonv.escape e.name) (Jsonv.escape e.cat) (ph_string e.ph) e.ts e.tid);
  if e.ph = Instant then Buffer.add_string buf ", \"s\": \"t\"";
  if e.args <> [] then begin
    Buffer.add_string buf ", \"args\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Jsonv.escape k);
        Buffer.add_string buf ": ";
        Buffer.add_string buf (arg_json v))
      e.args;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_chrome evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (event_json e))
    evs;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf

let to_jsonl evs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (event_json e);
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf

let flush () =
  match !out_file with
  | None -> ()
  | Some path ->
      let fresh = Mutex.protect lock (fun () -> !dirty) in
      if fresh then begin
        let evs = snapshot () in
        let body =
          if Filename.check_suffix path ".jsonl" then to_jsonl evs
          else to_chrome evs
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc body);
        Mutex.protect lock (fun () -> dirty := false)
      end

let enable ?(ring = default_ring) ?(sample = default_sample) ?file () =
  if ring < 16 then invalid_arg "Obs.Trace.enable: ring must be >= 16";
  if sample < 1 then invalid_arg "Obs.Trace.enable: sample must be >= 1";
  Mutex.protect lock (fun () ->
      rb.name <- Array.make ring "";
      rb.cat <- Array.make ring "";
      rb.ph <- Array.make ring 0;
      rb.ts <- Array.make ring 0.;
      rb.tid <- Array.make ring 0;
      rb.args <- Array.make ring [];
      rb.cap <- ring;
      rb.start <- 0;
      rb.len <- 0;
      rb.evicted <- 0;
      out_file := file;
      epoch := Unix.gettimeofday ();
      dirty := false);
  Atomic.set sample_period sample;
  Atomic.set on true;
  (* Backstop for early-exit code paths (exit 3/4 without reaching the
     CLI's explicit flush): best-effort, the CLI surfaces write errors
     itself where it can. *)
  if not !hooked then begin
    hooked := true;
    at_exit (fun () ->
        try flush ()
        with Sys_error msg ->
          Printf.eprintf "warning: trace flush failed: %s\n%!" msg)
  end

let disable () =
  Atomic.set on false;
  Mutex.protect lock (fun () ->
      rb.name <- [||];
      rb.cat <- [||];
      rb.ph <- [||];
      rb.ts <- [||];
      rb.tid <- [||];
      rb.args <- [||];
      rb.cap <- 0;
      rb.start <- 0;
      rb.len <- 0;
      rb.evicted <- 0;
      out_file := None;
      dirty := false)
