let hex_escape_nonprintable bytes =
  let buf = Buffer.create (String.length bytes) in
  String.iter
    (fun c ->
      let b = Char.code c in
      if b >= 0x20 && b <= 0x7E then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "\\x%02X" b))
    bytes;
  Buffer.contents buf

let strip_invisible cps =
  Array.of_list (List.filter (fun cp -> not (Props.is_invisible cp)) (Array.to_list cps))

let visible_utf8 s = Codec.utf8_of_cps (strip_invisible (Codec.cps_of_utf8 s))
