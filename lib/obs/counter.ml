(* Hot paths increment from several domains at once (the sharded
   pipeline), so every update is atomic.  Whole increments go to an
   [int Atomic.t] ([inc] is one fetch-and-add, with no float box to
   allocate); fractional amounts go to a [float Atomic.t] updated by a
   CAS loop, since a plain mutable cell silently loses increments under
   contention.  The value is their sum, exact up to 2^53. *)
type t = { help : string; hits : int Atomic.t; cell : float Atomic.t }

let make ?(help = "") () = { help; hits = Atomic.make 0; cell = Atomic.make 0.0 }

let rec atomic_add cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then atomic_add cell x

let inc t = Atomic.incr t.hits

let add t x =
  if x < 0.0 then invalid_arg "Obs.Counter.add: negative increment";
  atomic_add t.cell x

let value t = float_of_int (Atomic.get t.hits) +. Atomic.get t.cell
let help t = t.help

let reset t =
  Atomic.set t.hits 0;
  Atomic.set t.cell 0.0

let make_child = make

module Labeled = struct
  type counter = t

  (* The children table is read far more than written; a single mutex
     per family is enough because hot paths cache the child handle and
     only pay the lock on first use of a label. *)
  type t = {
    help : string;
    label : string;
    lock : Mutex.t;
    children : (string, counter) Hashtbl.t;
  }

  let make ?(help = "") ~label () =
    { help; label; lock = Mutex.create (); children = Hashtbl.create 16 }

  let get t v =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.children v with
        | Some c -> c
        | None ->
            let c = make_child ~help:t.help () in
            Hashtbl.replace t.children v c;
            c)

  let children t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.children [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let help t = t.help
  let label t = t.label
end
