type atv = { typ : Attr.t; value : Asn1.Value.t }
type rdn = atv list
type t = rdn list

let empty : t = []

let default_string_type text =
  let cps = Unicode.Codec.cps_of_utf8 text in
  if Array.for_all Unicode.Props.is_printable_string_char cps then
    Asn1.Str_type.Printable_string
  else Asn1.Str_type.Utf8_string

let atv ?st typ text =
  let st = match st with Some st -> st | None -> default_string_type text in
  let cps = Unicode.Codec.cps_of_utf8 text in
  match Asn1.Str_type.encode_value st cps with
  | Ok raw -> { typ; value = Asn1.Value.Str (st, raw) }
  | Error m -> invalid_arg (Printf.sprintf "Dn.atv (%s): %s" (Attr.name typ) m)

let atv_raw ~st typ bytes = { typ; value = Asn1.Value.Str (st, bytes) }

let single atvs = List.map (fun a -> [ a ]) atvs
let of_list pairs = single (List.map (fun (a, v) -> atv a v) pairs)

let atv_text v =
  match v.value with
  | Asn1.Value.Str (st, raw) -> (
      match
        Unicode.Codec.decode ~policy:(Unicode.Codec.Replace 0xFFFD)
          (Asn1.Str_type.standard_encoding st) raw
      with
      | Ok cps -> Unicode.Codec.utf8_of_cps cps
      | Error _ -> Format.asprintf "%a" Asn1.Value.pp v.value)
  | other -> Format.asprintf "%a" Asn1.Value.pp other

let all_atvs dn = List.concat dn
let get dn a = List.filter (fun v -> v.typ = a) (all_atvs dn)
let get_text dn a = List.map atv_text (get dn a)
let first dn a = match get dn a with [] -> None | v :: _ -> Some v
let to_value dn =
  Asn1.Value.Sequence
    (List.map
       (fun rdn ->
         Asn1.Value.Set
           (List.map
              (fun v -> Asn1.Value.Sequence [ Asn1.Value.Oid (Attr.oid v.typ); v.value ])
              rdn))
       dn)

let of_value v =
  let open Asn1.Value in
  let atv_of = function
    | Sequence [ Oid oid; value ] -> Ok { typ = Attr.of_oid oid; value }
    | _ -> Error "AttributeTypeAndValue must be SEQUENCE { OID, value }"
  in
  let rdn_of = function
    | Set atvs ->
        List.fold_left
          (fun acc a ->
            match (acc, atv_of a) with
            | Ok l, Ok v -> Ok (v :: l)
            | (Error _ as e), _ -> e
            | _, (Error _ as e) -> (match e with Ok _ -> assert false | Error m -> Error m))
          (Ok []) atvs
        |> Result.map List.rev
    | _ -> Error "RDN must be a SET"
  in
  match v with
  | Sequence rdns ->
      List.fold_left
        (fun acc r ->
          match (acc, rdn_of r) with
          | Ok l, Ok rdn -> Ok (rdn :: l)
          | (Error _ as e), _ -> e
          | _, Error m -> Error m)
        (Ok []) rdns
      |> Result.map List.rev
  | _ -> Error "RDNSequence must be a SEQUENCE"

let encode dn = Asn1.Value.encode (to_value dn)

let decode bytes =
  match Asn1.Value.decode bytes with
  | Error e -> Error (Format.asprintf "%a" Asn1.Value.pp_error e)
  | Ok v -> of_value v

type flavor = Rfc1779 | Rfc2253 | Rfc4514

let attr_label flavor typ =
  match Attr.short_name typ with
  | Some s -> s
  | None -> (
      match flavor with
      | Rfc1779 -> "OID." ^ Asn1.Oid.to_string (Attr.oid typ)
      | Rfc2253 | Rfc4514 -> Asn1.Oid.to_string (Attr.oid typ))

(* RFC 2253 / RFC 4514 section 2.4 escaping.  4514 additionally
   requires escaping NUL; both escape the specials (comma, plus,
   double-quote, backslash, angle brackets, semicolon) and a leading
   hash or space and a trailing space. *)
let escape_value flavor text =
  let cps = Unicode.Codec.cps_of_utf8 text in
  let n = Array.length cps in
  let buf = Buffer.create (n * 2) in
  Array.iteri
    (fun i cp ->
      let escaped_special =
        match Char.chr (cp land 0x7F) with
        | ',' | '+' | '"' | '\\' | '<' | '>' | ';' when cp < 0x80 -> true
        | '#' when cp < 0x80 && i = 0 -> true
        | ' ' when cp < 0x80 && (i = 0 || i = n - 1) -> true
        | _ -> false
      in
      if escaped_special then begin
        Buffer.add_char buf '\\';
        Buffer.add_char buf (Char.chr cp)
      end
      else if cp = 0x00 then
        (* NUL: RFC 4514 mandates the \00 hex form; RFC 2253 predates
           the rule but hex pairs are legal there too. *)
        Buffer.add_string buf "\\00"
      else if cp < 0x20 || cp = 0x7F then
        (match flavor with
        | Rfc4514 -> Buffer.add_string buf (Printf.sprintf "\\%02X" cp)
        | Rfc2253 | Rfc1779 ->
            Buffer.add_string buf (Unicode.Codec.utf8_of_cps [| cp |]))
      else Buffer.add_string buf (Unicode.Codec.utf8_of_cps [| cp |]))
    cps;
  Buffer.contents buf

(* RFC 1779 quotes a value containing specials instead of escaping. *)
let quote_1779 text =
  let needs_quoting =
    String.exists (fun c -> String.contains ",=+<>#;\"\n\r" c) text
    || (text <> "" && (text.[0] = ' ' || text.[String.length text - 1] = ' '))
  in
  if needs_quoting then begin
    let buf = Buffer.create (String.length text + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      text;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else text

let escape_value_public flavor text =
  match flavor with
  | Rfc1779 -> quote_1779 text
  | Rfc2253 | Rfc4514 -> escape_value flavor text

let atv_to_string flavor v =
  let label = attr_label flavor v.typ in
  let text = atv_text v in
  match flavor with
  | Rfc1779 -> label ^ "=" ^ quote_1779 text
  | Rfc2253 | Rfc4514 -> label ^ "=" ^ escape_value flavor text

let rdn_to_string flavor rdn =
  String.concat "+" (List.map (atv_to_string flavor) rdn)

let to_string ?(flavor = Rfc4514) dn =
  match flavor with
  | Rfc1779 ->
      (* RFC 1779 renders most-significant first with ", " separators. *)
      String.concat ", " (List.map (rdn_to_string flavor) dn)
  | Rfc2253 | Rfc4514 ->
      (* Reverse (least significant RDN first). *)
      String.concat "," (List.rev_map (rdn_to_string flavor) dn)

(* Export under the interface name; the internal [escape_value] keeps
   its backslash-only signature. *)
let escape_value = escape_value_public

let normalize_text text =
  let nfc = Unicode.Normalize.utf8_to_nfc text in
  let cps = Unicode.Codec.cps_of_utf8 nfc in
  let folded = Array.map Unicode.Props.ascii_lowercase cps in
  (* Collapse runs of whitespace to a single space and trim. *)
  let out = ref [] and pending_space = ref false and started = ref false in
  Array.iter
    (fun cp ->
      if Unicode.Props.is_whitespace cp then begin
        if !started then pending_space := true
      end
      else begin
        if !pending_space then out := 0x20 :: !out;
        pending_space := false;
        started := true;
        out := cp :: !out
      end)
    folded;
  Unicode.Codec.utf8_of_cps (Array.of_list (List.rev !out))

(* --- RFC 4514 parsing -------------------------------------------------- *)

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* Split on a separator, honouring backslash escapes. *)
let split_unescaped sep s =
  let parts = ref [] and buf = Buffer.create 32 in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !escaped then begin
        Buffer.add_char buf '\\';
        Buffer.add_char buf c;
        escaped := false
      end
      else if c = '\\' then escaped := true
      else if c = sep then begin
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    s;
  if !escaped then Buffer.add_char buf '\\';
  parts := Buffer.contents buf :: !parts;
  List.rev !parts

let unescape_value s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] = '\\' then begin
      if i + 1 >= n then Error "dangling backslash"
      else
        match (hex_digit s.[i + 1], if i + 2 < n then hex_digit s.[i + 2] else None) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
            go (i + 3)
        | _ ->
            Buffer.add_char buf s.[i + 1];
            go (i + 2)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

let attr_of_label label =
  let label = String.trim label in
  let known =
    List.find_opt
      (fun a ->
        (match Attr.short_name a with
        | Some s -> String.uppercase_ascii s = String.uppercase_ascii label
        | None -> false)
        || String.lowercase_ascii (Attr.name a) = String.lowercase_ascii label)
      Attr.all_known
  in
  match known with
  | Some a -> Ok a
  | None -> (
      match Asn1.Oid.of_string label with
      | Some oid -> Ok (Attr.of_oid oid)
      | None -> Error (Printf.sprintf "unknown attribute type %S" label))

let parse_atv part =
  match String.index_opt part '=' with
  | None -> Error (Printf.sprintf "missing '=' in %S" part)
  | Some eq -> (
      let label = String.sub part 0 eq in
      let raw_value = String.sub part (eq + 1) (String.length part - eq - 1) in
      match attr_of_label label with
      | Error _ as e -> e
      | Ok typ ->
          if String.length raw_value > 0 && raw_value.[0] = '#' then begin
            (* #hexstring: raw BER of the value. *)
            let hex = String.sub raw_value 1 (String.length raw_value - 1) in
            if String.length hex mod 2 <> 0 then Error "odd-length hex value"
            else begin
              let bytes = Buffer.create (String.length hex / 2) in
              let ok = ref true in
              for i = 0 to (String.length hex / 2) - 1 do
                match (hex_digit hex.[2 * i], hex_digit hex.[(2 * i) + 1]) with
                | Some hi, Some lo -> Buffer.add_char bytes (Char.chr ((hi lsl 4) lor lo))
                | _ -> ok := false
              done;
              if not !ok then Error "invalid hex value"
              else
                match Asn1.Value.decode (Buffer.contents bytes) with
                | Ok v -> Ok { typ; value = v }
                | Error e -> Error (Format.asprintf "%a" Asn1.Value.pp_error e)
            end
          end
          else
            match unescape_value raw_value with
            | Error _ as e -> e
            | Ok text ->
                Ok { typ; value = Asn1.Value.Str (Asn1.Str_type.Utf8_string, text) })

let of_string s =
  if String.trim s = "" then Ok []
  else begin
    let rdn_strings = split_unescaped ',' s in
    let parse_rdn rdn_str =
      let atv_strings = split_unescaped '+' rdn_str in
      List.fold_left
        (fun acc part ->
          Result.bind acc (fun l ->
              Result.bind (parse_atv part) (fun atv -> Ok (atv :: l))))
        (Ok []) atv_strings
      |> Result.map List.rev
    in
    (* RFC 4514 lists RDNs most-recent-first; the fold's accumulation
       reverses the list, which is exactly encoding order. *)
    List.fold_left
      (fun acc rdn_str ->
        Result.bind acc (fun l ->
            Result.bind (parse_rdn rdn_str) (fun rdn -> Ok (rdn :: l))))
      (Ok []) rdn_strings
  end

let equal_normalized a b =
  let norm dn =
    List.map
      (fun rdn ->
        List.map (fun v -> (Attr.oid v.typ, normalize_text (atv_text v))) rdn
        |> List.sort Stdlib.compare)
      dn
  in
  norm a = norm b
