type t = {
  label : string;
  total : int option;
  out : out_channel;
  interval : float;
  active : bool;
  start : float;
  mutable n : int;
  mutable last_emit : float;
}

let override_state : bool option Atomic.t = Atomic.make None

let set_override o = Atomic.set override_state o
let auto_active () =
  let quiet =
    match Sys.getenv_opt "OBS_QUIET" with Some v when v <> "" -> true | _ -> false
  in
  (not quiet) && (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)

let create ?total ?(out = stderr) ?(interval = 0.25) ~label () =
  (* Only the coordinating (main) domain ever emits: concurrent worker
     domains each run their own shard pass, and interleaved \r rewrites
     would shred the line.  Worker meters stay inactive but still
     count. *)
  let active =
    Domain.is_main_domain ()
    && (match Atomic.get override_state with Some b -> b | None -> auto_active ())
  in
  { label; total; out; interval; active; start = Unix.gettimeofday ();
    n = 0; last_emit = 0.0 }

let active t = t.active
let count t = t.n

let render t now =
  let elapsed = now -. t.start in
  let rate = if elapsed > 0.0 then float_of_int t.n /. elapsed else 0.0 in
  match t.total with
  | Some total when total > 0 ->
      let pct = 100.0 *. float_of_int t.n /. float_of_int total in
      let eta =
        if rate > 0.0 && t.n < total then
          Printf.sprintf " ETA %.0fs" (float_of_int (total - t.n) /. rate)
        else ""
      in
      Printf.sprintf "\r%s %d/%d (%.1f%%) %.0f/s%s" t.label t.n total pct rate eta
  | _ -> Printf.sprintf "\r%s %d %.0f/s" t.label t.n rate

let emit t now =
  t.last_emit <- now;
  output_string t.out (render t now);
  flush t.out

let tick ?(by = 1) t =
  t.n <- t.n + by;
  if t.active then begin
    let now = Unix.gettimeofday () in
    if now -. t.last_emit >= t.interval then emit t now
  end

let finish t =
  if t.active && t.n > 0 then begin
    emit t (Unix.gettimeofday ());
    output_string t.out "\n";
    flush t.out
  end
