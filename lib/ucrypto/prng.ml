type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

(* Independent stream per (seed, index) pair: the seed is mixed first,
   then pushed [index] steps along the splitmix gamma sequence and
   mixed again, so neighbouring indices land on unrelated points of the
   state space.  Corpus sharding depends on this being a pure function
   of the pair — stream i never depends on how many draws stream i-1
   consumed. *)
let of_pair seed index =
  let base = mix (Int64.of_int seed) in
  { state = mix (Int64.add base (Int64.mul gamma (Int64.of_int index))) }

let bits64 g =
  g.state <- Int64.add g.state gamma;
  mix g.state

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  r mod bound

let float g =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  float_of_int r /. 9007199254740992.0 (* 2^53 *)

let bool g = Int64.logand (bits64 g) 1L = 1L
let pick g arr = arr.(int g (Array.length arr))
let pick_list g l = List.nth l (int g (List.length l))

let weighted g choices =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 choices in
  let target = float g *. total in
  let rec go acc = function
    | [] -> invalid_arg "Prng.weighted: empty choices"
    | [ (x, _) ] -> x
    | (x, w) :: rest -> if acc +. w > target then x else go (acc +. w) rest
  in
  go 0.0 choices

let bytes g n = String.init n (fun _ -> Char.chr (int g 256))
