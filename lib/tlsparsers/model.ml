type field = Subject_dn | San | Ian | Aia | Sia | Crldp

let field_name = function
  | Subject_dn -> "Subject/Issuer DN"
  | San -> "SAN"
  | Ian -> "IAN"
  | Aia -> "AIA"
  | Sia -> "SIA"
  | Crldp -> "CRLDistributionPoints"

let all_fields = [ Subject_dn; San; Ian; Aia; Sia; Crldp ]

type t = {
  name : string;
  supports : field -> bool;
  decode_name_attr : Asn1.Str_type.t -> string -> string option;
  decode_gn : field -> string -> string option;
  dn_to_string : X509.Dn.t -> string option;
  gns_to_string : X509.General_name.t list -> string option;
  escaping_claim : [ `Rfc1779 | `Rfc2253 | `Rfc4514 ] list;
}

(* A byte below 0x80 decodes to the same code point under ASCII,
   Latin-1 and UTF-8 and re-encodes to itself in UTF-8, so an all-ASCII
   payload is its own output under all three; most probed payloads are
   all ASCII. *)
let is_ascii raw = not (String.exists (fun c -> c >= '\x80') raw)

(* Strict ASCII decoding fails exactly when some byte is not ASCII. *)
let ascii_strict raw = if is_ascii raw then Some raw else None

let ascii_hex_escape raw = Unicode.Escape.hex_escape_nonprintable raw

let ascii_replace repl raw =
  Unicode.Codec.utf8_of_cps
    (Unicode.Codec.decode_exn ~policy:(Unicode.Codec.Replace repl) Unicode.Codec.Ascii raw)

let latin1 raw =
  if is_ascii raw then raw
  else Unicode.Codec.utf8_of_cps (Unicode.Codec.cps_of_latin1 raw)

let utf8_strict raw =
  if is_ascii raw then Some raw
  else
    match Unicode.Codec.decode Unicode.Codec.Utf8 raw with
    | Ok cps -> Some (Unicode.Codec.utf8_of_cps cps)
    | Error _ -> None

let utf8_replace raw = Unicode.Codec.utf8_of_cps (Unicode.Codec.cps_of_utf8 raw)

let ucs2_ascii_bytewise repl raw =
  let buf = Buffer.create (String.length raw) in
  String.iter
    (fun c ->
      let b = Char.code c in
      if b = 0 then () (* high zero octets of ASCII BMP text vanish *)
      else if b <= 0x7F then Buffer.add_char buf c
      else Buffer.add_string buf (Unicode.Codec.utf8_of_cps [| repl |]))
    raw;
  Buffer.contents buf

let ucs2 raw =
  match Unicode.Codec.decode Unicode.Codec.Ucs2 raw with
  | Ok cps -> Some (Unicode.Codec.utf8_of_cps cps)
  | Error _ -> None

let utf16 raw =
  match Unicode.Codec.decode Unicode.Codec.Utf16be raw with
  | Ok cps -> Some (Unicode.Codec.utf8_of_cps cps)
  | Error _ -> None
