(* Buckets, sum and count are all atomics: [observe] runs on worker
   domains concurrently, and a racy [mutable count] would drift from
   the bucket totals.  Each observation is three independent atomic
   updates, so a mid-flight snapshot can be off by a transient
   observation — acceptable for telemetry, unlike lost updates. *)
type t = {
  help : string;
  bounds : float array;
  counts : int Atomic.t array;  (* length = Array.length bounds + 1; last is +Inf *)
  sum_cell : float Atomic.t;
  count : int Atomic.t;
}

let log_buckets ~base ~factor ~count =
  if base <= 0.0 || factor <= 1.0 || count < 1 then
    invalid_arg "Obs.Histogram.log_buckets";
  Array.init count (fun i -> base *. (factor ** float_of_int i))

let default_latency_buckets = log_buckets ~base:1e-6 ~factor:4.0 ~count:14

let make ?(help = "") ?(buckets = default_latency_buckets) () =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Obs.Histogram.make: no buckets";
  for i = 1 to n - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Obs.Histogram.make: bounds not strictly increasing"
  done;
  { help; bounds = Array.copy buckets;
    counts = Array.init (n + 1) (fun _ -> Atomic.make 0);
    sum_cell = Atomic.make 0.0; count = Atomic.make 0 }

let rec atomic_addf cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then atomic_addf cell x

let observe t v =
  let n = Array.length t.bounds in
  (* Bounds are few (≤ 20); a linear scan beats binary search overhead. *)
  let rec slot i = if i >= n || v <= t.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  ignore (Atomic.fetch_and_add t.counts.(i) 1);
  atomic_addf t.sum_cell v;
  ignore (Atomic.fetch_and_add t.count 1)

let sum t = Atomic.get t.sum_cell
let count t = Atomic.get t.count
let help t = t.help
let cumulative t =
  let acc = ref 0 in
  Array.to_list t.bounds
  |> List.mapi (fun i b ->
         acc := !acc + Atomic.get t.counts.(i);
         (b, !acc))

let make_child = make

module Labeled = struct
  type histogram = t

  type t = {
    help : string;
    label : string;
    buckets : float array;
    lock : Mutex.t;
    children : (string, histogram) Hashtbl.t;
  }

  let make ?(help = "") ?(buckets = default_latency_buckets) ~label () =
    { help; label; buckets; lock = Mutex.create ();
      children = Hashtbl.create 16 }

  let get t v =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.children v with
        | Some h -> h
        | None ->
            let h = make_child ~help:t.help ~buckets:t.buckets () in
            Hashtbl.replace t.children v h;
            h)

  let children t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.children [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let help t = t.help
  let label t = t.label
end
