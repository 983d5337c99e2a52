(* The one JSON printer of the benchmark: results, trace spans and
   comparisons are built as Obs.Jsonv values and printed here, and read
   back with Obs.Jsonv.parse. *)

type t = Obs.Jsonv.t

(* Finite floats keep every significant digit (%.17g round-trips);
   integral values print without a fraction.  JSON has no NaN, so a
   non-finite value prints as null. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_buffer b (v : t) =
  match v with
  | Obs.Jsonv.Null -> Buffer.add_string b "null"
  | Obs.Jsonv.Bool x -> Buffer.add_string b (string_of_bool x)
  | Obs.Jsonv.Num f -> Buffer.add_string b (number f)
  | Obs.Jsonv.Str s -> Buffer.add_string b (Obs.Jsonv.escape s)
  | Obs.Jsonv.List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b x)
        l;
      Buffer.add_char b ']'
  | Obs.Jsonv.Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (Obs.Jsonv.escape k);
          Buffer.add_string b ": ";
          to_buffer b x)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let num f = Obs.Jsonv.Num f
let int n = Obs.Jsonv.Num (float_of_int n)
let str s = Obs.Jsonv.Str s
let obj kvs = Obs.Jsonv.Obj kvs

(* Readers for parsed values; [None] on a missing key or a wrong type. *)
let get_num k v =
  match Obs.Jsonv.member k v with Some (Obs.Jsonv.Num f) -> Some f | _ -> None

let get_str k v =
  match Obs.Jsonv.member k v with Some (Obs.Jsonv.Str s) -> Some s | _ -> None

let get_list k v =
  match Obs.Jsonv.member k v with Some (Obs.Jsonv.List l) -> l | _ -> []

let get_obj k v =
  match Obs.Jsonv.member k v with Some (Obs.Jsonv.Obj kvs) -> kvs | _ -> []
