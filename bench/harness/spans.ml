(* The benchmark's own span recorder, used only by traced runs.

   It never turns on the program's Obs.Trace: each span wraps one call
   the benchmark makes into a layer's public function.  A span records
   its name, start, end, parent span, request id and the minor-heap
   words allocated inside it.  Self time (and self words) is the span
   minus its children.  Per-layer totals count every call; the full
   span records are kept in memory for the first [keep_cap] calls only,
   and written as JSONL when the run ends.  Spans are opened on the
   main domain only (every traced workload runs at jobs=1). *)

type role = Source | Decode | Analyze | Output

let roles = [ Source; Decode; Analyze; Output ]

let role_name = function
  | Source -> "source"
  | Decode -> "decode"
  | Analyze -> "analyze"
  | Output -> "output"

type frame = {
  id : int;
  parent : int;
  name : string;
  role : role option;
  req : int;
  mutable t0 : float;
  mutable w0 : float;
  mutable child_s : float;
  mutable child_w : float;
}

type layer = {
  l_role : role option;
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable self_w : float;
}

type span = {
  s_id : int;
  s_parent : int;
  s_name : string;
  s_req : int;
  s_start : float;
  s_end : float;
  s_words : float;
}

let keep_cap = 50_000
let on = ref false
let stack : frame list ref = ref []
let table : (string, layer) Hashtbl.t = Hashtbl.create 32
let kept : span list ref = ref []  (* newest first *)
let kept_count = ref 0
let next_id = ref 1
let cur_req = ref 0
let origin = ref (Unix.gettimeofday ())

let reset () =
  stack := [];
  Hashtbl.reset table;
  kept := [];
  kept_count := 0;
  next_id := 1;
  origin := Unix.gettimeofday ()

let set_enabled b = on := b

(* Spans opened by [f] carry request id [id]. *)
let request id f =
  let saved = !cur_req in
  cur_req := id;
  Fun.protect ~finally:(fun () -> cur_req := saved) f

let close fr =
  let t1 = Unix.gettimeofday () in
  let words = Gc.minor_words () -. fr.w0 in
  let dur = t1 -. fr.t0 in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  (match !stack with
  | p :: _ ->
      p.child_s <- p.child_s +. dur;
      p.child_w <- p.child_w +. words
  | [] -> ());
  let l =
    match Hashtbl.find_opt table fr.name with
    | Some l -> l
    | None ->
        let l = { l_role = fr.role; calls = 0; total_s = 0.; self_s = 0.; self_w = 0. } in
        Hashtbl.replace table fr.name l;
        l
  in
  l.calls <- l.calls + 1;
  l.total_s <- l.total_s +. dur;
  l.self_s <- l.self_s +. (dur -. fr.child_s);
  l.self_w <- l.self_w +. (words -. fr.child_w);
  if !kept_count < keep_cap then begin
    incr kept_count;
    kept :=
      {
        s_id = fr.id;
        s_parent = fr.parent;
        s_name = fr.name;
        s_req = fr.req;
        s_start = fr.t0 -. !origin;
        s_end = t1 -. !origin;
        s_words = words;
      }
      :: !kept
  end

(* [span ?role name f] runs [f], recording a span around it while the
   recorder is on.  [role] groups layers into the per-layer metrics. *)
let span ?role name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> 0 in
    let fr =
      { id = !next_id; parent; name; role; req = !cur_req; t0 = 0.; w0 = 0.; child_s = 0.;
        child_w = 0. }
    in
    incr next_id;
    stack := fr :: !stack;
    fr.t0 <- Unix.gettimeofday ();
    fr.w0 <- Gc.minor_words ();
    match f () with
    | v ->
        close fr;
        v
    | exception e ->
        close fr;
        raise e
  end

(* Per-layer totals, busiest self time first. *)
let layers () =
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.self_s a.self_s)

(* Self seconds and self words summed over the layers of [role]. *)
let role_totals layers role =
  List.fold_left
    (fun (s, w) (_, l) -> if l.l_role = Some role then (s +. l.self_s, w +. l.self_w) else (s, w))
    (0., 0.) layers

let write_jsonl path =
  let all = List.rev !kept in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.obj
                  [
                    ("id", Json.int s.s_id);
                    ("parent", Json.int s.s_parent);
                    ("name", Json.str s.s_name);
                    ("req", Json.int s.s_req);
                    ("start_us", Json.num (s.s_start *. 1e6));
                    ("end_us", Json.num (s.s_end *. 1e6));
                    ("words", Json.num s.s_words);
                  ]));
          output_char oc '\n')
        all);
  List.length all
