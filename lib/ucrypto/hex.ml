(* Table-driven hex codec: one table lookup per nibble each way, no
   per-byte formatting or integer parsing. *)

let digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get digits (c land 0xf))
  done;
  Bytes.unsafe_to_string b

(* Nibble value of each byte; 0x10 marks a non-hex character, so one
   OR over every nibble read tells whether the input was all hex. *)
let nibbles =
  String.init 256 (fun c ->
      Char.chr
        (match Char.chr c with
        | '0' .. '9' -> c - Char.code '0'
        | 'a' .. 'f' -> c - Char.code 'a' + 10
        | 'A' .. 'F' -> c - Char.code 'A' + 10
        | _ -> 0x10))

let decode_from s ~pos =
  let n = String.length s - pos in
  if pos < 0 || n < 0 then invalid_arg "Hex.decode_from";
  if n land 1 <> 0 then None
  else begin
    let b = Bytes.create (n / 2) in
    let bad = ref 0 in
    for i = 0 to (n / 2) - 1 do
      let j = pos + (2 * i) in
      let hi = Char.code (String.unsafe_get nibbles (Char.code (String.unsafe_get s j))) in
      let lo = Char.code (String.unsafe_get nibbles (Char.code (String.unsafe_get s (j + 1)))) in
      bad := !bad lor hi lor lo;
      Bytes.unsafe_set b i (Char.unsafe_chr (((hi lsl 4) lor lo) land 0xff))
    done;
    if !bad < 0x10 then Some (Bytes.unsafe_to_string b) else None
  end

let decode s = decode_from s ~pos:0
