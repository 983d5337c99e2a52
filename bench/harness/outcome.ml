(* One result schema for every workload: the checks a run made, the
   metrics it measured, and a workload-specific detail section.  The
   same value prints as the human summary, as the one-line JSON result
   (always the last line of stdout) and as the full record [--out]
   appends. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  n : int;  (** samples behind [value] *)
  q1 : float;  (** spread band of the samples; nan when there is none *)
  q3 : float;
}

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* newest first, capped *)
  mutable metrics : metric list;  (* report order, reversed *)
  mutable detail : (string * Json.t) list;  (* reversed *)
}

let create () = { attempted = 0; failed = 0; problems = []; metrics = []; detail = [] }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.problems < 20 then t.problems <- what :: t.problems
  end

let correct t = t.failed = 0 && t.attempted > 0
let add t m = t.metrics <- m :: t.metrics
let detail t k v = t.detail <- (k, v) :: t.detail
let metrics t = List.rev t.metrics

(* Median of [xs] with its quartiles as the band. *)
let of_samples ~name ~unit_ xs =
  let a = Stats.sorted xs in
  { name; unit_; value = Stats.median a; n = Array.length a; q1 = Stats.q1 a; q3 = Stats.q3 a }

let metric_json ~full m =
  Json.obj
    ([ ("value", Json.num m.value); ("unit", Json.str m.unit_) ]
    @
    if full then [ ("n", Json.int m.n); ("q1", Json.num m.q1); ("q3", Json.num m.q3) ]
    else [])

(* The result line: exactly correct / attempted / failed / metrics. *)
let line t =
  Json.to_string
    (Json.obj
       [
         ("correct", Obs.Jsonv.Bool (correct t));
         ("attempted", Json.int t.attempted);
         ("failed", Json.int t.failed);
         ("metrics", Json.obj (List.map (fun m -> (m.name, metric_json ~full:false m)) (metrics t)));
       ])

let record t ~workload ~seed ~seconds ~trace ~sizes =
  Json.obj
    [
      ("schema", Json.str "unicert-bench/1");
      ("workload", Json.str workload);
      ("seed", Json.int seed);
      ("seconds", Json.num seconds);
      ("trace", Obs.Jsonv.Bool trace);
      ("host", Host.fingerprint ());
      ("sizes", sizes);
      ("correct", Obs.Jsonv.Bool (correct t));
      ("attempted", Json.int t.attempted);
      ("failed", Json.int t.failed);
      ("problems", Obs.Jsonv.List (List.rev_map Json.str t.problems));
      ("metrics", Json.obj (List.map (fun m -> (m.name, metric_json ~full:true m)) (metrics t)));
      ("detail", Json.obj (List.rev t.detail));
    ]

let print_human t ~workload ~seed =
  Printf.printf "workload %s  seed %d  host %s\n" workload seed
    (Json.to_string (Host.fingerprint ()));
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16.6f %-6s n=%-6d q1=%.6f q3=%.6f\n" m.name m.value m.unit_ m.n
        m.q1 m.q3)
    (metrics t);
  List.iter (fun (k, v) -> Printf.printf "  detail %-27s %s\n" k (Json.to_string v)) (List.rev t.detail);
  Printf.printf "  checks: %d attempted, %d failed\n" t.attempted t.failed;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) (List.rev t.problems)
