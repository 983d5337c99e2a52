type method_ = M_ascii | M_latin1 | M_utf8 | M_ucs2 | M_utf16

let method_name = function
  | M_ascii -> "ASCII"
  | M_latin1 -> "ISO-8859-1"
  | M_utf8 -> "UTF-8"
  | M_ucs2 -> "UCS-2"
  | M_utf16 -> "UTF-16"

type handling =
  | H_none
  | H_replace_fffd
  | H_replace_dot
  | H_skip
  | H_hex_escape
  | H_escape_nonprintable
  | H_bytewise_escape
  | H_bytewise_replace

type observation = { raw : string; output : string option }

let encoding_of = function
  | M_ascii -> Unicode.Codec.Ascii
  | M_latin1 -> Unicode.Codec.Iso8859_1
  | M_utf8 -> Unicode.Codec.Utf8
  | M_ucs2 -> Unicode.Codec.Ucs2
  | M_utf16 -> Unicode.Codec.Utf16be

let candidates =
  let methods = [ M_ascii; M_latin1; M_utf8; M_ucs2; M_utf16 ] in
  List.map (fun m -> (m, H_none)) methods
  @ List.concat_map
      (fun h -> List.map (fun m -> (m, h)) methods)
      [ H_replace_fffd; H_replace_dot; H_skip; H_hex_escape ]
  @ [ (M_ascii, H_escape_nonprintable); (M_ascii, H_bytewise_escape);
      (M_ascii, H_bytewise_replace) ]

(* Byte-wise UCS-2 reading: NUL octets vanish.  The escape flavour
   expands every non-printable byte (OpenSSL); the replace flavour
   substitutes U+FFFD only for bytes above 0x7F (Java). *)
let bytewise_escape raw =
  let buf = Buffer.create (String.length raw) in
  String.iter
    (fun c ->
      let b = Char.code c in
      if b = 0 then ()
      else if b >= 0x20 && b <= 0x7E then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "\\x%02X" b))
    raw;
  Buffer.contents buf

let bytewise_replace raw =
  let buf = Buffer.create (String.length raw) in
  String.iter
    (fun c ->
      let b = Char.code c in
      if b = 0 then ()
      else if b <= 0x7F then Buffer.add_char buf c
      else Buffer.add_string buf "\xEF\xBF\xBD")
    raw;
  Buffer.contents buf

let apply (m, h) raw =
  let enc = encoding_of m in
  match h with
  | H_none -> (
      match Unicode.Codec.decode enc raw with
      | Ok cps -> Some (Unicode.Codec.utf8_of_cps cps)
      | Error _ -> None)
  | H_replace_fffd ->
      Some (Unicode.Codec.utf8_of_cps
              (Unicode.Codec.decode_exn ~policy:(Unicode.Codec.Replace 0xFFFD) enc raw))
  | H_replace_dot ->
      Some (Unicode.Codec.utf8_of_cps
              (Unicode.Codec.decode_exn ~policy:(Unicode.Codec.Replace 0x2E) enc raw))
  | H_skip ->
      Some (Unicode.Codec.utf8_of_cps
              (Unicode.Codec.decode_exn ~policy:Unicode.Codec.Skip enc raw))
  | H_hex_escape ->
      Some (Unicode.Codec.utf8_of_cps
              (Unicode.Codec.decode_exn ~policy:Unicode.Codec.Escape_hex enc raw))
  | H_escape_nonprintable -> Some (Unicode.Escape.hex_escape_nonprintable raw)
  | H_bytewise_escape -> Some (bytewise_escape raw)
  | H_bytewise_replace -> Some (bytewise_replace raw)

(* Per §3.2, complete parsing failures are excluded from the inference
   and analyzed separately: a candidate must reproduce every produced
   output but is free to fail where the library failed. *)
let consistent candidate obs =
  List.for_all
    (fun o ->
      match o.output with
      | None -> true
      | Some out -> (
          match apply candidate o.raw with
          | Some c -> String.equal c out
          | None -> false))
    obs

let infer obs =
  if List.for_all (fun o -> o.output = None) obs then None
  else List.find_opt (fun c -> consistent c obs) candidates

type verdict =
  | Compliant
  | Over_tolerant
  | Incompatible
  | Modified
  | Unsupported
  | Crashing of string  (** the model raised; payload is the exception constructor *)

let verdict_symbol = function
  | Compliant -> "o"
  | Over_tolerant -> "O/"
  | Incompatible -> "X"
  | Modified -> "(.)"
  | Unsupported -> "-"
  | Crashing e -> "!" ^ e

let standard_method stype =
  match stype with
  | Asn1.Str_type.Printable_string | Asn1.Str_type.Ia5_string
  | Asn1.Str_type.Numeric_string | Asn1.Str_type.Visible_string ->
      Some M_ascii
  | Asn1.Str_type.Teletex_string -> Some M_latin1
  | Asn1.Str_type.Utf8_string -> Some M_utf8
  | Asn1.Str_type.Bmp_string -> Some M_ucs2
  | Asn1.Str_type.Universal_string -> None

(* Wider repertoire: decoding an ASCII-typed value with Latin-1/UTF-8,
   or a UCS-2-typed value with UTF-16. *)
let is_wider ~std m =
  match (std, m) with
  | M_ascii, (M_latin1 | M_utf8) -> true
  | M_ucs2, M_utf16 -> true
  | _ -> false

let classify ~declared inferred ~all_none =
  if all_none then [ Unsupported ]
  else
    match (standard_method declared, inferred) with
    | None, _ -> [ Unsupported ]
    | Some _, None -> [ Modified ] (* behaviour matched no clean candidate *)
    | Some std, Some (m, h) ->
        let base =
          if m = std then if h = H_none then [ Compliant ] else []
          else if is_wider ~std m then [ Over_tolerant ]
          else [ Incompatible ]
        in
        let modified = if h = H_none then [] else [ Modified ] in
        let v = base @ modified in
        if v = [] then [ Modified ] else v
