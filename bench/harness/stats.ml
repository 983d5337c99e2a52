(* Order statistics shared by the runner and [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The [i]-th of the [n - 1] cut points dividing sorted [a] into [n]
   equal groups, by the "exclusive" rule of Python's
   statistics.quantiles — so the quartiles here match the ones the
   spread of a set of runs is judged by.  One sample is its own cut
   point; no samples give nan. *)
let cut a ~i ~n =
  let ld = Array.length a in
  if ld = 0 then nan
  else if ld = 1 then a.(0)
  else begin
    let m = ld + 1 in
    let j = i * m / n in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  end

let median a = cut a ~i:1 ~n:2
let q1 a = cut a ~i:1 ~n:4
let q3 a = cut a ~i:3 ~n:4

(* Percentile [p] in whole percent, e.g. [percentile a 90]. *)
let percentile a p = cut a ~i:p ~n:100
