type t =
  | Utf8_string
  | Numeric_string
  | Printable_string
  | Teletex_string
  | Ia5_string
  | Visible_string
  | Universal_string
  | Bmp_string

let all =
  [
    Utf8_string; Numeric_string; Printable_string; Teletex_string;
    Ia5_string; Visible_string; Universal_string; Bmp_string;
  ]

let tag = function
  | Utf8_string -> 12
  | Numeric_string -> 18
  | Printable_string -> 19
  | Teletex_string -> 20
  | Ia5_string -> 22
  | Visible_string -> 26
  | Universal_string -> 28
  | Bmp_string -> 30

let of_tag = function
  | 12 -> Some Utf8_string
  | 18 -> Some Numeric_string
  | 19 -> Some Printable_string
  | 20 -> Some Teletex_string
  | 22 -> Some Ia5_string
  | 26 -> Some Visible_string
  | 28 -> Some Universal_string
  | 30 -> Some Bmp_string
  | _ -> None

let name = function
  | Utf8_string -> "UTF8String"
  | Numeric_string -> "NumericString"
  | Printable_string -> "PrintableString"
  | Teletex_string -> "TeletexString"
  | Ia5_string -> "IA5String"
  | Visible_string -> "VisibleString"
  | Universal_string -> "UniversalString"
  | Bmp_string -> "BMPString"

let of_name s = List.find_opt (fun st -> name st = s) all

let standard_encoding = function
  | Utf8_string -> Unicode.Codec.Utf8
  | Numeric_string | Printable_string | Ia5_string | Visible_string ->
      Unicode.Codec.Ascii
  | Teletex_string -> Unicode.Codec.Iso8859_1
  | Universal_string -> Unicode.Codec.Ucs4
  | Bmp_string -> Unicode.Codec.Ucs2

let allows st cp =
  match st with
  | Utf8_string -> Unicode.Cp.is_scalar cp
  | Numeric_string -> Unicode.Props.is_numeric_string_char cp
  | Printable_string -> Unicode.Props.is_printable_string_char cp
  | Teletex_string -> Unicode.Props.is_teletex_char cp
  | Ia5_string -> Unicode.Props.is_ia5_char cp
  | Visible_string -> Unicode.Props.is_visible_string_char cp
  | Universal_string -> Unicode.Cp.is_scalar cp
  | Bmp_string -> Unicode.Cp.is_bmp cp && not (Unicode.Cp.is_surrogate cp)

let encode_value st cps =
  match Unicode.Codec.encode (standard_encoding st) cps with
  | Ok s -> Ok s
  | Error e -> Error (Format.asprintf "%a" Unicode.Codec.pp_error e)

let decode_value st bytes =
  match Unicode.Codec.decode (standard_encoding st) bytes with
  | Ok cps -> Ok cps
  | Error e ->
      Error
        (Format.asprintf "%s: %a" (name st) Unicode.Codec.pp_error e)
