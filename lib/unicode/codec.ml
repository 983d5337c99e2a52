type encoding = Ascii | Iso8859_1 | Utf8 | Ucs2 | Utf16be | Ucs4

let encoding_name = function
  | Ascii -> "ASCII"
  | Iso8859_1 -> "ISO-8859-1"
  | Utf8 -> "UTF-8"
  | Ucs2 -> "UCS-2"
  | Utf16be -> "UTF-16"
  | Ucs4 -> "UCS-4"

type policy = Strict | Replace of Cp.t | Skip | Escape_hex

type error = { offset : int; message : string }

let pp_error ppf e = Format.fprintf ppf "offset %d: %s" e.offset e.message

exception Decode_error of error

(* Decoders append code points to a growable int buffer; on a malformed
   sequence they consult the policy via [bad], which receives the
   offending byte offset, a message, and the raw bytes consumed. *)
module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create n = { data = Array.make (max n 16) 0; len = 0 }

  let push b cp =
    if b.len = Array.length b.data then begin
      let data = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    b.data.(b.len) <- cp;
    b.len <- b.len + 1

  let contents b = Array.sub b.data 0 b.len
end

let bad policy out offset message raw_bytes =
  match policy with
  | Strict -> raise (Decode_error { offset; message })
  | Replace cp -> Ibuf.push out cp
  | Skip -> ()
  | Escape_hex ->
      let escape byte =
        Ibuf.push out (Char.code '\\');
        Ibuf.push out (Char.code 'x');
        let hex = Printf.sprintf "%02X" byte in
        Ibuf.push out (Char.code hex.[0]);
        Ibuf.push out (Char.code hex.[1])
      in
      List.iter escape raw_bytes

let decode_ascii policy s =
  let out = Ibuf.create (String.length s) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      if b <= 0x7F then Ibuf.push out b
      else bad policy out i (Printf.sprintf "byte 0x%02X is not ASCII" b) [ b ])
    s;
  Ibuf.contents out

let decode_latin1 s = Array.init (String.length s) (fun i -> Char.code s.[i])

(* Strict UTF-8 per RFC 3629: shortest form only, no surrogates, max
   U+10FFFF. *)
let decode_utf8 policy s =
  let n = String.length s in
  let out = Ibuf.create n in
  let byte i = Char.code s.[i] in
  let is_cont i = i < n && byte i land 0xC0 = 0x80 in
  let i = ref 0 in
  while !i < n do
    let b0 = byte !i in
    if b0 <= 0x7F then begin
      Ibuf.push out b0;
      incr i
    end
    else if b0 land 0xE0 = 0xC0 then
      if b0 < 0xC2 then begin
        bad policy out !i "overlong 2-byte sequence" [ b0 ];
        incr i
      end
      else if is_cont (!i + 1) then begin
        Ibuf.push out (((b0 land 0x1F) lsl 6) lor (byte (!i + 1) land 0x3F));
        i := !i + 2
      end
      else begin
        bad policy out !i "truncated 2-byte sequence" [ b0 ];
        incr i
      end
    else if b0 land 0xF0 = 0xE0 then
      if is_cont (!i + 1) && is_cont (!i + 2) then begin
        let cp =
          ((b0 land 0x0F) lsl 12)
          lor ((byte (!i + 1) land 0x3F) lsl 6)
          lor (byte (!i + 2) land 0x3F)
        in
        if cp < 0x800 then begin
          bad policy out !i "overlong 3-byte sequence" [ b0; byte (!i + 1); byte (!i + 2) ];
          i := !i + 3
        end
        else if Cp.is_surrogate cp then begin
          bad policy out !i "surrogate code point in UTF-8" [ b0; byte (!i + 1); byte (!i + 2) ];
          i := !i + 3
        end
        else begin
          Ibuf.push out cp;
          i := !i + 3
        end
      end
      else begin
        bad policy out !i "truncated 3-byte sequence" [ b0 ];
        incr i
      end
    else if b0 land 0xF8 = 0xF0 then
      if is_cont (!i + 1) && is_cont (!i + 2) && is_cont (!i + 3) then begin
        let cp =
          ((b0 land 0x07) lsl 18)
          lor ((byte (!i + 1) land 0x3F) lsl 12)
          lor ((byte (!i + 2) land 0x3F) lsl 6)
          lor (byte (!i + 3) land 0x3F)
        in
        if cp < 0x10000 then begin
          bad policy out !i "overlong 4-byte sequence"
            [ b0; byte (!i + 1); byte (!i + 2); byte (!i + 3) ];
          i := !i + 4
        end
        else if cp > Cp.max_value then begin
          bad policy out !i "code point above U+10FFFF"
            [ b0; byte (!i + 1); byte (!i + 2); byte (!i + 3) ];
          i := !i + 4
        end
        else begin
          Ibuf.push out cp;
          i := !i + 4
        end
      end
      else begin
        bad policy out !i "truncated 4-byte sequence" [ b0 ];
        incr i
      end
    else begin
      bad policy out !i (Printf.sprintf "invalid UTF-8 lead byte 0x%02X" b0) [ b0 ];
      incr i
    end
  done;
  Ibuf.contents out

(* UCS-2: raw big-endian 16-bit units.  Surrogate values are passed
   through untouched, which is exactly how naive BMPString decoders
   behave. *)
let decode_ucs2 policy s =
  let n = String.length s in
  let out = Ibuf.create (n / 2) in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n then begin
      let cp = (Char.code s.[!i] lsl 8) lor Char.code s.[!i + 1] in
      Ibuf.push out cp;
      i := !i + 2
    end
    else begin
      bad policy out !i "odd trailing byte in UCS-2" [ Char.code s.[!i] ];
      incr i
    end
  done;
  Ibuf.contents out

let decode_utf16be policy s =
  let n = String.length s in
  let out = Ibuf.create (n / 2) in
  let unit i = (Char.code s.[i] lsl 8) lor Char.code s.[i + 1] in
  let i = ref 0 in
  while !i < n do
    if !i + 1 >= n then begin
      bad policy out !i "odd trailing byte in UTF-16" [ Char.code s.[!i] ];
      incr i
    end
    else
      let u = unit !i in
      if u >= 0xD800 && u <= 0xDBFF then
        if !i + 3 < n then begin
          let u2 = unit (!i + 2) in
          if u2 >= 0xDC00 && u2 <= 0xDFFF then begin
            Ibuf.push out (0x10000 + ((u - 0xD800) lsl 10) + (u2 - 0xDC00));
            i := !i + 4
          end
          else begin
            bad policy out !i "unpaired high surrogate" [ u lsr 8; u land 0xFF ];
            i := !i + 2
          end
        end
        else begin
          bad policy out !i "truncated surrogate pair" [ u lsr 8; u land 0xFF ];
          i := !i + 2
        end
      else if u >= 0xDC00 && u <= 0xDFFF then begin
        bad policy out !i "unpaired low surrogate" [ u lsr 8; u land 0xFF ];
        i := !i + 2
      end
      else begin
        Ibuf.push out u;
        i := !i + 2
      end
  done;
  Ibuf.contents out

let decode_ucs4 policy s =
  let n = String.length s in
  let out = Ibuf.create (n / 4) in
  let i = ref 0 in
  while !i < n do
    if !i + 3 < n then begin
      let cp =
        (Char.code s.[!i] lsl 24)
        lor (Char.code s.[!i + 1] lsl 16)
        lor (Char.code s.[!i + 2] lsl 8)
        lor Char.code s.[!i + 3]
      in
      if Cp.is_valid cp then Ibuf.push out cp
      else
        bad policy out !i "UCS-4 unit above U+10FFFF"
          [ Char.code s.[!i]; Char.code s.[!i + 1]; Char.code s.[!i + 2]; Char.code s.[!i + 3] ];
      i := !i + 4
    end
    else begin
      bad policy out !i "truncated UCS-4 unit" [ Char.code s.[!i] ];
      incr i
    end
  done;
  Ibuf.contents out

let decode ?(policy = Strict) enc s =
  try
    Ok
      (match enc with
      | Ascii -> decode_ascii policy s
      | Iso8859_1 -> decode_latin1 s
      | Utf8 -> decode_utf8 policy s
      | Ucs2 -> decode_ucs2 policy s
      | Utf16be -> decode_utf16be policy s
      | Ucs4 -> decode_ucs4 policy s)
  with Decode_error e -> Error e

let decode_exn ?policy enc s =
  match decode ?policy enc s with
  | Ok cps -> cps
  | Error e ->
      invalid_arg
        (Printf.sprintf "Codec.decode_exn (%s): offset %d: %s" (encoding_name enc)
           e.offset e.message)

exception Encode_error of error

let encode_utf8_cp buf cp =
  if cp <= 0x7F then Buffer.add_char buf (Char.chr cp)
  else if cp <= 0x7FF then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp <= 0xFFFF then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let encode enc cps =
  let buf = Buffer.create (Array.length cps * 2) in
  let fail i msg = raise (Encode_error { offset = i; message = msg }) in
  try
    Array.iteri
      (fun i cp ->
        match enc with
        | Ascii ->
            if Cp.is_ascii cp then Buffer.add_char buf (Char.chr cp)
            else fail i (Cp.to_string cp ^ " is not ASCII")
        | Iso8859_1 ->
            if cp >= 0 && cp <= 0xFF then Buffer.add_char buf (Char.chr cp)
            else fail i (Cp.to_string cp ^ " is not Latin-1")
        | Utf8 ->
            if Cp.is_scalar cp then encode_utf8_cp buf cp
            else fail i (Cp.to_string cp ^ " is not a scalar value")
        | Ucs2 ->
            if Cp.is_bmp cp && cp >= 0 then begin
              Buffer.add_char buf (Char.chr (cp lsr 8));
              Buffer.add_char buf (Char.chr (cp land 0xFF))
            end
            else fail i (Cp.to_string cp ^ " is outside the BMP")
        | Utf16be ->
            if Cp.is_surrogate cp then fail i (Cp.to_string cp ^ " is a surrogate")
            else if Cp.is_bmp cp && cp >= 0 then begin
              Buffer.add_char buf (Char.chr (cp lsr 8));
              Buffer.add_char buf (Char.chr (cp land 0xFF))
            end
            else if Cp.is_valid cp then begin
              let v = cp - 0x10000 in
              let hi = 0xD800 lor (v lsr 10) and lo = 0xDC00 lor (v land 0x3FF) in
              Buffer.add_char buf (Char.chr (hi lsr 8));
              Buffer.add_char buf (Char.chr (hi land 0xFF));
              Buffer.add_char buf (Char.chr (lo lsr 8));
              Buffer.add_char buf (Char.chr (lo land 0xFF))
            end
            else fail i (Cp.to_string cp ^ " is out of range")
        | Ucs4 ->
            if Cp.is_valid cp then begin
              Buffer.add_char buf (Char.chr ((cp lsr 24) land 0xFF));
              Buffer.add_char buf (Char.chr ((cp lsr 16) land 0xFF));
              Buffer.add_char buf (Char.chr ((cp lsr 8) land 0xFF));
              Buffer.add_char buf (Char.chr (cp land 0xFF))
            end
            else fail i (Cp.to_string cp ^ " is out of range"))
      cps;
    Ok (Buffer.contents buf)
  with Encode_error e -> Error e

let encode_exn enc cps =
  match encode enc cps with
  | Ok s -> s
  | Error e ->
      invalid_arg
        (Printf.sprintf "Codec.encode_exn (%s): index %d: %s" (encoding_name enc)
           e.offset e.message)

let utf8_of_cps cps =
  let buf = Buffer.create (Array.length cps * 2) in
  Array.iter
    (fun cp -> encode_utf8_cp buf (if Cp.is_scalar cp then cp else 0xFFFD))
    cps;
  Buffer.contents buf

let cps_of_utf8 s = decode_utf8 (Replace 0xFFFD) s
let cps_of_latin1 = decode_latin1

let well_formed_utf8 s =
  match decode Utf8 s with Ok _ -> true | Error _ -> false
