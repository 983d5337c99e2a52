(* RFC 3492 parameters. *)
let base = 36
let tmin = 1
let tmax = 26
let skew = 38
let damp = 700
let initial_bias = 72
let initial_n = 128
let delimiter = '-'

let adapt delta num_points first_time =
  let delta = if first_time then delta / damp else delta / 2 in
  let delta = ref (delta + (delta / num_points)) in
  let k = ref 0 in
  while !delta > (base - tmin) * tmax / 2 do
    delta := !delta / (base - tmin);
    k := !k + base
  done;
  !k + ((base - tmin + 1) * !delta / (!delta + skew))

(* Digit values: a-z = 0..25, 0-9 = 26..35 (we emit lowercase). *)
let encode_digit d =
  if d < 26 then Char.chr (d + Char.code 'a') else Char.chr (d - 26 + Char.code '0')

(* -1 for a character outside the Punycode alphabet. *)
let decode_digit c =
  match c with
  | 'a' .. 'z' -> Char.code c - Char.code 'a'
  | 'A' .. 'Z' -> Char.code c - Char.code 'A'
  | '0' .. '9' -> Char.code c - Char.code '0' + 26
  | _ -> -1

(* Raised inside [encode]/[decode] and turned into their [Error]; the
   loops run on plain refs, so a successful call allocates only its
   result. *)
exception Malformed of string

let rec all_scalar cps i =
  i >= Array.length cps || (Unicode.Cp.is_scalar cps.(i) && all_scalar cps (i + 1))

let encode cps =
  if not (all_scalar cps 0) then
    Error "input contains non-scalar code points"
  else begin
    let input_len = Array.length cps in
    let buf = Buffer.create (input_len * 2) in
    for j = 0 to input_len - 1 do
      let cp = cps.(j) in
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    done;
    let b = Buffer.length buf in
    (* RFC 3492 §6.3: emit the delimiter whenever basic code points
       were copied. *)
    if b > 0 then Buffer.add_char buf delimiter;
    let n = ref initial_n and delta = ref 0 and bias = ref initial_bias in
    let h = ref b in
    match
      while !h < input_len do
        let m = ref max_int in
        for j = 0 to input_len - 1 do
          let cp = cps.(j) in
          if cp >= !n && cp < !m then m := cp
        done;
        if !m - !n > (max_int - !delta) / (!h + 1) then raise (Malformed "overflow");
        delta := !delta + ((!m - !n) * (!h + 1));
        n := !m;
        for j = 0 to input_len - 1 do
          let cp = cps.(j) in
          if cp < !n then begin
            incr delta;
            if !delta = 0 then raise (Malformed "overflow")
          end
          else if cp = !n then begin
            (* Encode delta as a variable-length integer. *)
            let q = ref !delta and k = ref base in
            let continue = ref true in
            while !continue do
              let t =
                if !k <= !bias then tmin
                else if !k >= !bias + tmax then tmax
                else !k - !bias
              in
              if !q < t then begin
                Buffer.add_char buf (encode_digit !q);
                continue := false
              end
              else begin
                Buffer.add_char buf (encode_digit (t + ((!q - t) mod (base - t))));
                q := (!q - t) / (base - t);
                k := !k + base
              end
            done;
            bias := adapt !delta (!h + 1) (!h = b);
            delta := 0;
            incr h
          end
        done;
        incr delta;
        incr n
      done
    with
    | () -> Ok (Buffer.contents buf)
    | exception Malformed m -> Error m
  end

let decode s =
  let n_in = String.length s in
  (* Split at the last delimiter. *)
  let rec find_delim i = if i < 0 || s.[i] = delimiter then i else find_delim (i - 1) in
  let last_delim = find_delim (n_in - 1) in
  let basic_end = if last_delim >= 0 then last_delim else 0 in
  let rec basic_ok i =
    i >= basic_end || (Char.code (String.unsafe_get s i) < 0x80 && basic_ok (i + 1))
  in
  if not (basic_ok 0) then Error "non-basic code point before delimiter"
  else begin
    (* Every decoded code point after the basic ones consumes at least
       one input byte, so [n_in] bounds the output: insert in place. *)
    let out = Array.make n_in 0 in
    for j = 0 to basic_end - 1 do
      out.(j) <- Char.code s.[j]
    done;
    let len = ref basic_end in
    let i = ref 0 and n = ref initial_n and bias = ref initial_bias in
    let pos = ref (if last_delim >= 0 then basic_end + 1 else 0) in
    match
      while !pos < n_in do
        let oldi = !i and w = ref 1 and k = ref base in
        let continue = ref true in
        while !continue do
          if !pos >= n_in then raise (Malformed "truncated variable-length integer");
          let digit = decode_digit s.[!pos] in
          if digit < 0 then
            raise (Malformed (Printf.sprintf "invalid punycode digit %C" s.[!pos]));
          incr pos;
          if digit > (max_int - !i) / !w then raise (Malformed "overflow");
          i := !i + (digit * !w);
          let t =
            if !k <= !bias then tmin
            else if !k >= !bias + tmax then tmax
            else !k - !bias
          in
          if digit < t then continue := false
          else if !w > max_int / (base - t) then raise (Malformed "overflow")
          else begin
            w := !w * (base - t);
            k := !k + base
          end
        done;
        let out_len = !len + 1 in
        bias := adapt (!i - oldi) out_len (oldi = 0);
        if !i / out_len > max_int - !n then raise (Malformed "overflow");
        n := !n + (!i / out_len);
        i := !i mod out_len;
        if not (Unicode.Cp.is_scalar !n) then
          raise
            (Malformed (Printf.sprintf "decoded non-scalar %s" (Unicode.Cp.to_string !n)));
        (* Insert n at position i. *)
        Array.blit out !i out (!i + 1) (!len - !i);
        out.(!i) <- !n;
        incr len;
        incr i
      done
    with
    | () -> Ok (Array.sub out 0 !len)
    | exception Malformed m -> Error m
  end

let encode_utf8 text = encode (Unicode.Codec.cps_of_utf8 text)

let decode_utf8 s =
  match decode s with Ok cps -> Ok (Unicode.Codec.utf8_of_cps cps) | Error _ as e -> e
