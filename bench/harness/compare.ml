(* `unicert_bench compare BASE NEW`: a verdict per (metric, workload)
   between two sets of result records (the JSONL that `run --out`
   appends), judged by the bounds in BENCHMARK.json.

   Each side's centre is the median of its runs' values and its band
   the quartiles across runs; a side with a single run uses that run's
   own sample band.  Overlapping bands are "unresolved"; otherwise the
   verdict is "better" or "worse" in the metric's direction.  Only a
   "worse" row whose median moved by more than the bound is a
   regression, and only a regression makes the command exit 1. *)

type bound = { name : string; unit_ : string; lower_is_better : bool; bound : float }

type benchmark = {
  workloads : string list;
  end_to_end : bound list;
  per_layer : (string * string) list;  (* name, unit *)
}

let fail fmt = Printf.ksprintf failwith fmt

let parse_file path =
  match Proc.read_file path with
  | None -> fail "cannot read %s" path
  | Some s -> (
      match Obs.Jsonv.parse s with Ok v -> v | Error e -> fail "%s: %s" path e)

let load_benchmark path =
  let v = parse_file path in
  let str k o = match Json.get_str k o with Some s -> s | None -> fail "%s: %s missing" path k in
  {
    workloads = List.map (str "name") (Json.get_list "workloads" v);
    end_to_end =
      List.map
        (fun o ->
          {
            name = str "name" o;
            unit_ = str "unit" o;
            lower_is_better = str "better" o = "lower";
            bound = (match Json.get_num "bound" o with Some b -> b | None -> fail "%s: bound missing" path);
          })
        (Json.get_list "end_to_end" v);
    per_layer = List.map (fun o -> (str "name" o, str "unit" o)) (Json.get_list "per_layer" v);
  }

(* Untraced result records of a JSONL file. *)
let load_records path =
  match Proc.read_file path with
  | None -> fail "cannot read %s" path
  | Some s ->
      String.split_on_char '\n' s
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map (fun l ->
             match Obs.Jsonv.parse l with Ok v -> v | Error e -> fail "%s: %s" path e)
      |> List.filter (fun r -> Obs.Jsonv.member "trace" r <> Some (Obs.Jsonv.Bool true))

type side = { centre : float; lo : float; hi : float; runs : int }

let side records ~workload ~metric =
  let ms =
    List.filter_map
      (fun r ->
        if Json.get_str "workload" r <> Some workload then None
        else List.assoc_opt metric (Json.get_obj "metrics" r))
      records
  in
  match ms with
  | [] -> None
  | [ m ] ->
      Option.map
        (fun v ->
          let band k = Option.value (Json.get_num k m) ~default:v in
          { centre = v; lo = Float.min v (band "q1"); hi = Float.max v (band "q3"); runs = 1 })
        (Json.get_num "value" m)
  | _ ->
      let a = Stats.sorted (List.filter_map (Json.get_num "value") ms) in
      Some { centre = Stats.median a; lo = Stats.q1 a; hi = Stats.q3 a; runs = Array.length a }

type row = {
  workload : string;
  metric : bound;
  base : side;
  next : side;
  change : float;  (* relative change of the median, positive = worse *)
  verdict : string;
  regression : bool;
}

let rows (bm : benchmark) ~base ~next =
  List.concat_map
    (fun workload ->
      List.filter_map
        (fun (b : bound) ->
          match (side base ~workload ~metric:b.name, side next ~workload ~metric:b.name) with
          | Some bs, Some ns ->
              let rel = (ns.centre -. bs.centre) /. bs.centre in
              let change = if b.lower_is_better then rel else -.rel in
              let verdict =
                if bs.lo <= ns.hi && ns.lo <= bs.hi then "unresolved"
                else if change < 0. then "better"
                else "worse"
              in
              Some
                {
                  workload;
                  metric = b;
                  base = bs;
                  next = ns;
                  change;
                  verdict;
                  regression = verdict = "worse" && change > b.bound;
                }
          | _ -> None)
        bm.end_to_end)
    bm.workloads

let print rows =
  Printf.printf "%-16s %-16s %14s %14s %9s %7s  %s\n" "workload" "metric" "base" "new"
    "worse_by" "bound" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-16s %-16s %14.4f %14.4f %8.2f%% %6.1f%%  %s%s\n" r.workload r.metric.name
        r.base.centre r.next.centre (100. *. r.change) (100. *. r.metric.bound) r.verdict
        (if r.regression then " (REGRESSION)" else ""))
    rows

let main ~spec ~base ~next =
  let bm = load_benchmark spec in
  let rs = rows bm ~base:(load_records base) ~next:(load_records next) in
  print rs;
  if List.exists (fun r -> r.regression) rs then 1 else 0
