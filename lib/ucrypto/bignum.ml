(* Little-endian digit arrays in base 2^26.  Digit products fit well
   inside the 63-bit native int, so schoolbook multiplication needs no
   special carry handling. *)

let base_bits = 26
let base = 1 lsl base_bits
let digit_mask = base - 1

type t = int array (* normalized: no trailing zero digits; [||] is 0 *)

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative"
  else if n = 0 then zero
  else begin
    let rec digits n acc = if n = 0 then List.rev acc else digits (n lsr base_bits) ((n land digit_mask) :: acc) in
    Array.of_list (digits n [])
  end

let is_zero a = Array.length a = 0
let is_even a = is_zero a || a.(0) land 1 = 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + width top 0
  end

let get a i = if i < Array.length a then a.(i) else 0

let add a b =
  let n = max (Array.length a) (Array.length b) + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = get a i + get b i + !carry in
    out.(i) <- s land digit_mask;
    carry := s lsr base_bits
  done;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let n = Array.length a in
  let out = Array.make n 0 in
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let d = a.(i) - get b i - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let s = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- s land digit_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = out.(!k) + !carry in
        out.(!k) <- s land digit_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    normalize out
  end

let shift_left a bits =
  if is_zero a || bits = 0 then a
  else begin
    let digit_shift = bits / base_bits and bit_shift = bits mod base_bits in
    let n = Array.length a in
    let out = Array.make (n + digit_shift + 1) 0 in
    for i = 0 to n - 1 do
      let v = a.(i) lsl bit_shift in
      out.(i + digit_shift) <- out.(i + digit_shift) lor (v land digit_mask);
      out.(i + digit_shift + 1) <- out.(i + digit_shift + 1) lor (v lsr base_bits)
    done;
    normalize out
  end

let shift_right a bits =
  if is_zero a || bits = 0 then a
  else begin
    let digit_shift = bits / base_bits and bit_shift = bits mod base_bits in
    let n = Array.length a in
    if digit_shift >= n then zero
    else begin
      let m = n - digit_shift in
      let out = Array.make m 0 in
      for i = 0 to m - 1 do
        let lo = a.(i + digit_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + digit_shift + 1 >= n then 0
          else (a.(i + digit_shift + 1) lsl (base_bits - bit_shift)) land digit_mask
        in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

(* Binary long division: O(bit-difference) shift/compare/subtract
   passes.  Slow but simple; fine for the short RSA moduli we use. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let shift = bit_length a - bit_length b in
    let d = ref (shift_left b shift) in
    let rem = ref a in
    let q = ref zero in
    for _ = 0 to shift do
      q := shift_left !q 1;
      if compare !rem !d >= 0 then begin
        rem := sub !rem !d;
        q := add !q one
      end;
      d := shift_right !d 1
    done;
    (!q, !rem)
  end

let rem a b = snd (divmod a b)

let mod_pow ~base:b ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  let result = ref one in
  let b = ref (rem b modulus) in
  let bits = bit_length exp in
  for i = 0 to bits - 1 do
    let digit = exp.(i / base_bits) in
    if digit lsr (i mod base_bits) land 1 = 1 then
      result := rem (mul !result !b) modulus;
    b := rem (mul !b !b) modulus
  done;
  !result

(* Extended Euclid over signed pairs (sign, magnitude). *)
let mod_inverse a m =
  if is_zero m then None
  else begin
    let snorm (sg, v) = if is_zero v then (1, zero) else (sg, v) in
    let ssub (sa, va) (sb, vb) =
      (* (sa,va) - (sb,vb) *)
      if sa = sb then
        if compare va vb >= 0 then snorm (sa, sub va vb) else snorm (-sa, sub vb va)
      else snorm (sa, add va vb)
    in
    let smul_nat (sg, v) n = snorm (sg, mul v n) in
    (* Loop invariant: old_s * a ≡ old_r (mod m). *)
    let old_r = ref (rem a m) and r = ref m in
    let old_s = ref (1, one) and s = ref (1, zero) in
    while not (is_zero !r) do
      let q, _ = divmod !old_r !r in
      let next_r = sub !old_r (mul q !r) in
      let next_s = ssub !old_s (smul_nat !s q) in
      old_r := !r;
      r := next_r;
      old_s := !s;
      s := next_s
    done;
    if not (equal !old_r one) then None
    else begin
      let sg, v = !old_s in
      let v = rem v m in
      if sg >= 0 || is_zero v then Some v else Some (sub m v)
    end
  end

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71;
    73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149 ]

let random_bits g n =
  if n <= 0 then invalid_arg "Bignum.random_bits";
  let digits = ((n - 1) / base_bits) + 1 in
  let out = Array.make digits 0 in
  for i = 0 to digits - 1 do
    out.(i) <- Prng.int g base
  done;
  (* Clear excess bits, then force the top bit. *)
  let top_bits = n - ((digits - 1) * base_bits) in
  out.(digits - 1) <- out.(digits - 1) land ((1 lsl top_bits) - 1);
  out.(digits - 1) <- out.(digits - 1) lor (1 lsl (top_bits - 1));
  normalize out

let is_probable_prime g n =
  if compare n two < 0 then false
  else if equal n two then true
  else if is_even n then false
  else begin
    let small = List.exists (fun p -> equal n (of_int p)) small_primes in
    let divisible =
      List.exists
        (fun p ->
          let p = of_int p in
          compare n p > 0 && is_zero (rem n p))
        small_primes
    in
    if small then true
    else if divisible then false
    else begin
      (* n - 1 = d * 2^r with d odd. *)
      let n1 = sub n one in
      let r = ref 0 and d = ref n1 in
      while is_even !d do
        d := shift_right !d 1;
        incr r
      done;
      let witness a =
        let x = ref (mod_pow ~base:a ~exp:!d ~modulus:n) in
        if equal !x one || equal !x n1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to !r - 1 do
               x := rem (mul !x !x) n;
               if equal !x n1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      in
      let rounds = 16 in
      let rec test i =
        if i = rounds then true
        else begin
          let bits = max 2 (bit_length n - 1) in
          let a = add (rem (random_bits g bits) (sub n two)) two in
          if witness a then false else test (i + 1)
        end
      in
      test 0
    end
  end

let random_prime g bits =
  let rec go () =
    let candidate = random_bits g bits in
    let candidate = if is_even candidate then add candidate one else candidate in
    if is_probable_prime g candidate then candidate else go ()
  in
  go ()

let of_bytes_be s =
  let v = ref zero in
  String.iter (fun c -> v := add (shift_left !v 8) (of_int (Char.code c))) s;
  !v

let to_bytes_be a =
  if is_zero a then "\x00"
  else begin
    let bytes = ref [] in
    let v = ref a in
    while not (is_zero !v) do
      let low = !v.(0) land 0xFF in
      bytes := Char.chr low :: !bytes;
      v := shift_right !v 8
    done;
    String.init (List.length !bytes) (List.nth !bytes)
  end
