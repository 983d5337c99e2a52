let definite_length n =
  if n < 0 then invalid_arg "Writer.definite_length: negative"
  else if n < 0x80 then String.make 1 (Char.chr n)
  else begin
    let rec bytes n acc = if n = 0 then acc else bytes (n lsr 8) (Char.chr (n land 0xFF) :: acc) in
    let b = bytes n [] in
    let buf = Buffer.create 5 in
    Buffer.add_char buf (Char.chr (0x80 lor List.length b));
    List.iter (Buffer.add_char buf) b;
    Buffer.contents buf
  end

let tlv tag_byte content =
  let buf = Buffer.create (String.length content + 4) in
  Buffer.add_char buf (Char.chr tag_byte);
  Buffer.add_string buf (definite_length (String.length content));
  Buffer.add_string buf content;
  Buffer.contents buf

let universal ?(constructed = false) n content =
  if n > 30 then invalid_arg "Writer.universal: multi-byte tags unsupported";
  tlv ((if constructed then 0x20 else 0x00) lor n) content

let integer_bytes b =
  let b = if b = "" then "\x00" else b in
  (* Strip redundant leading 0x00 octets, then restore one if needed. *)
  let rec first_significant i =
    if i + 1 < String.length b && b.[i] = '\x00' && Char.code b.[i + 1] < 0x80 then
      first_significant (i + 1)
    else i
  in
  let b = String.sub b (first_significant 0) (String.length b - first_significant 0) in
  let b = if Char.code b.[0] >= 0x80 then "\x00" ^ b else b in
  universal 2 b

let sequence parts = universal ~constructed:true 16 (String.concat "" parts)
