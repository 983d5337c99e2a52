type metric =
  | Counter of Counter.t
  | Labeled_counter of Counter.Labeled.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t
  | Labeled_histogram of Histogram.Labeled.t

(* The table is mutex-guarded: [intern]'s find-or-create must be atomic
   when several domains resolve the same metric name concurrently, or
   two handles for one name would split the counts. *)
type t = { lock : Mutex.t; table : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); table = Hashtbl.create 64 }
let default = create ()

let find t name = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table name)

let metrics t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Idempotent lookup-or-create; a kind clash on an existing name is a
   programming error worth failing loudly on. *)
let intern ?(registry = default) name ~extract ~build =
  Mutex.protect registry.lock @@ fun () ->
  match Hashtbl.find_opt registry.table name with
  | Some m -> (
      match extract m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Obs.Registry: %s already registered as another kind"
               name))
  | None ->
      let v, m = build () in
      Hashtbl.replace registry.table name m;
      v

let counter ?registry ?help name =
  intern ?registry name
    ~extract:(function Counter c -> Some c | _ -> None)
    ~build:(fun () ->
      let c = Counter.make ?help () in
      (c, Counter c))

let labeled_counter ?registry ?help ~label name =
  intern ?registry name
    ~extract:(function Labeled_counter c -> Some c | _ -> None)
    ~build:(fun () ->
      let c = Counter.Labeled.make ?help ~label () in
      (c, Labeled_counter c))

let gauge ?registry ?help name =
  intern ?registry name
    ~extract:(function Gauge g -> Some g | _ -> None)
    ~build:(fun () ->
      let g = Gauge.make ?help () in
      (g, Gauge g))

let histogram ?registry ?help ?buckets name =
  intern ?registry name
    ~extract:(function Histogram h -> Some h | _ -> None)
    ~build:(fun () ->
      let h = Histogram.make ?help ?buckets () in
      (h, Histogram h))

let labeled_histogram ?registry ?help ?buckets ~label name =
  intern ?registry name
    ~extract:(function Labeled_histogram h -> Some h | _ -> None)
    ~build:(fun () ->
      let h = Histogram.Labeled.make ?help ?buckets ~label () in
      (h, Labeled_histogram h))
