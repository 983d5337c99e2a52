module Punycode = Punycode
module Dns = Dns

type property = Pvalid | Disallowed | Mapped of Unicode.Cp.t

(* Blocks whose content is (almost entirely) punctuation or symbols —
   DISALLOWED under IDNA2008. *)
let symbol_block_names =
  [
    "General Punctuation"; "Superscripts and Subscripts"; "Currency Symbols";
    "Letterlike Symbols"; "Number Forms"; "Arrows"; "Mathematical Operators";
    "Miscellaneous Technical"; "Control Pictures"; "Optical Character Recognition";
    "Enclosed Alphanumerics"; "Box Drawing"; "Block Elements"; "Geometric Shapes";
    "Miscellaneous Symbols"; "Dingbats"; "Miscellaneous Mathematical Symbols-A";
    "Supplemental Arrows-A"; "Braille Patterns"; "Supplemental Arrows-B";
    "Miscellaneous Mathematical Symbols-B"; "Supplemental Mathematical Operators";
    "Miscellaneous Symbols and Arrows"; "Supplemental Punctuation";
    "Alphabetic Presentation Forms"; "Arabic Presentation Forms-A";
    "Variation Selectors"; "Vertical Forms"; "Combining Half Marks";
    "CJK Compatibility Forms"; "Small Form Variants"; "Arabic Presentation Forms-B";
    "Halfwidth and Fullwidth Forms"; "Specials"; "Private Use Area";
    "High Surrogates"; "High Private Use Surrogates"; "Low Surrogates";
    "Mahjong Tiles"; "Domino Tiles"; "Playing Cards";
    "Enclosed Alphanumeric Supplement"; "Enclosed Ideographic Supplement";
    "Miscellaneous Symbols and Pictographs"; "Emoticons"; "Ornamental Dingbats";
    "Transport and Map Symbols"; "Alchemical Symbols"; "Geometric Shapes Extended";
    "Supplemental Arrows-C"; "Supplemental Symbols and Pictographs";
    "Chess Symbols"; "Symbols and Pictographs Extended-A";
    "Symbols for Legacy Computing"; "Tags"; "Variation Selectors Supplement";
    "Supplementary Private Use Area-A"; "Supplementary Private Use Area-B";
    "Musical Symbols"; "Byzantine Musical Symbols";
    "Mathematical Alphanumeric Symbols";
  ]

let symbol_blocks = Hashtbl.create 64

let () =
  List.iter (fun n -> Hashtbl.replace symbol_blocks n ()) symbol_block_names

let is_noncharacter cp =
  (cp >= 0xFDD0 && cp <= 0xFDEF) || cp land 0xFFFE = 0xFFFE

let property_classify cp =
  if Unicode.Props.is_ascii_lower cp || Unicode.Props.is_ascii_digit cp
     || cp = Char.code '-'
  then Pvalid
  else if Unicode.Props.is_ascii_upper cp then Mapped (cp + 32)
  else if cp <= 0x7F then Disallowed (* remaining ASCII punctuation *)
  else if Unicode.Props.is_control cp || Unicode.Props.is_format cp
          || Unicode.Props.is_whitespace cp || Unicode.Cp.is_surrogate cp
          || is_noncharacter cp
          || not (Unicode.Cp.is_valid cp)
  then Disallowed
  else if cp = 0xD7 || cp = 0xF7 then Disallowed (* multiply/divide signs *)
  else if cp >= 0xA0 && cp <= 0xBF then Disallowed (* Latin-1 punctuation *)
  else
    match Unicode.Blocks.find cp with
    | Some b when Hashtbl.mem symbol_blocks b.Unicode.Blocks.name -> Disallowed
    | Some _ -> Pvalid
    | None -> Disallowed

(* Flat BMP property table: the block search + symbol-name hash probe
   collapse to one array load per code point on the per-label hot path.
   The variant values (including the [Mapped] boxes for A–Z) are
   allocated once at single-threaded module init; the table is
   read-only afterwards. *)
let bmp_property = Array.init 0x10000 property_classify

let property cp =
  if cp lsr 16 = 0 then Array.unsafe_get bmp_property cp
  else property_classify cp

type issue =
  | Malformed_punycode of string
  | Unpermitted_char of Unicode.Cp.t
  | Not_nfc
  | Leading_combining_mark
  | Bad_hyphen34
  | Leading_hyphen
  | Trailing_hyphen
  | Bidi_violation
  | Empty_label
  | Encoded_label_too_long
  | Non_canonical_alabel

let pp_issue ppf = function
  | Malformed_punycode m -> Format.fprintf ppf "malformed punycode (%s)" m
  | Unpermitted_char cp ->
      Format.fprintf ppf "unpermitted code point %s" (Unicode.Cp.to_string cp)
  | Not_nfc -> Format.fprintf ppf "label is not NFC-normalized"
  | Leading_combining_mark -> Format.fprintf ppf "label starts with a combining mark"
  | Bad_hyphen34 -> Format.fprintf ppf "hyphens in positions 3 and 4"
  | Leading_hyphen -> Format.fprintf ppf "leading hyphen"
  | Trailing_hyphen -> Format.fprintf ppf "trailing hyphen"
  | Bidi_violation -> Format.fprintf ppf "bidi rule violation"
  | Empty_label -> Format.fprintf ppf "empty label"
  | Encoded_label_too_long -> Format.fprintf ppf "encoded label exceeds 63 octets"
  | Non_canonical_alabel -> Format.fprintf ppf "A-label is not the canonical encoding"

let is_combining cp = Unicode.Normalize.combining_class cp > 0

(* Bidirectional categories, approximated over the script ranges the
   corpus exercises (RFC 5893 §2 uses the full UCD property). *)
type bidi_cat = B_l | B_r_al | B_an | B_en | B_es | B_cs | B_et | B_on | B_nsm

let bidi_category cp =
  if Unicode.Props.is_ascii_digit cp || (cp >= 0x6F0 && cp <= 0x6F9) then B_en
  else if (cp >= 0x660 && cp <= 0x669) || (cp >= 0x600 && cp <= 0x605) || cp = 0x6DD
  then B_an
  else if cp = Char.code '+' || cp = Char.code '-' then B_es
  else if cp = Char.code ',' || cp = Char.code '.' || cp = Char.code ':' then B_cs
  else if cp = Char.code '%' || cp = Char.code '#' || cp = Char.code '$'
          || (cp >= 0xA2 && cp <= 0xA5)
  then B_et
  else if Unicode.Normalize.combining_class cp > 0
          || (cp >= 0x610 && cp <= 0x61A)
          || (cp >= 0x64B && cp <= 0x65F)
          || (cp >= 0x5B0 && cp <= 0x5BD)
  then B_nsm
  else if (cp >= 0x0590 && cp <= 0x05FF)
          || (cp >= 0x0600 && cp <= 0x08FF)
          || (cp >= 0xFB1D && cp <= 0xFDFF)
          || (cp >= 0xFE70 && cp <= 0xFEFF)
          || (cp >= 0x10800 && cp <= 0x10FFF)
          || (cp >= 0x1E800 && cp <= 0x1EEFF)
  then B_r_al
  else if Unicode.Props.is_ascii_letter cp
          || (cp >= 0xC0 && cp <= 0x2AF)
          || (cp >= 0x370 && cp <= 0x58F)
          || (cp >= 0x900 && cp <= 0x109F)
          || (cp >= 0x10A0 && cp <= 0x13FF)
          || (cp >= 0x1E00 && cp <= 0x1FFF)
          || (cp >= 0x3040 && cp <= 0xD7FF)
          || (cp >= 0xA000 && cp <= 0xABFF)
  then B_l
  else B_on

(* [Array.exists] builds its loop closure on every call; this does
   not, and [bidi_ok] runs on every U-label. *)
let rec exists_cp p cps i =
  i < Array.length cps && (p (Array.unsafe_get cps i) || exists_cp p cps (i + 1))

(* The last category in [cps] that is not NSM, scanning back from
   [i]; [B_on] when there is none (every caller rejects that case). *)
let rec last_strong cps i =
  if i < 0 then B_on
  else
    match bidi_category (Array.unsafe_get cps i) with
    | B_nsm -> last_strong cps (i - 1)
    | c -> c

(* RFC 5893 §2, conditions 1–6, applied to every label carrying an RTL
   character (plus an outright ban on explicit bidi controls, which are
   DISALLOWED anyway).  Categories are recomputed per scan rather than
   kept in an array: almost every label is LTR and needs one pass. *)
let bidi_ok cps =
  let is_rtl cp = match bidi_category cp with B_r_al | B_an -> true | _ -> false in
  if exists_cp Unicode.Props.is_bidi_control cps 0 then false
  else if not (exists_cp is_rtl cps 0) then true
  else
    match bidi_category cps.(0) with
    | B_r_al ->
        (* RTL label: conditions 2–4.  The last non-NSM character must
           be R/AL/EN/AN, and EN and AN must not mix. *)
        let has c = Array.exists (fun cp -> bidi_category cp = c) cps in
        (not (has B_l))
        && (match last_strong cps (Array.length cps - 1) with
           | B_r_al | B_en | B_an -> true
           | _ -> false)
        && not (has B_en && has B_an)
    | _ ->
        (* Either condition 1 fails (the first character is not L, R or
           AL), or the label is LTR and condition 5 forbids the R, AL
           or AN character it holds. *)
        false

(* The lowercased body of an xn-- label, in one allocation. *)
let alabel_body l =
  String.init (String.length l - 4) (fun i ->
      Char.lowercase_ascii (String.unsafe_get l (i + 4)))

let ulabel_issues cps =
  let n = Array.length cps in
  if n = 0 then [ Empty_label ]
  else begin
    (* Built back to front, so a clean label allocates nothing. *)
    let cons_if c issue l = if c then issue :: l else l in
    let tail =
      []
      |> cons_if (not (bidi_ok cps)) Bidi_violation
      |> cons_if (n >= 4 && cps.(2) = Char.code '-' && cps.(3) = Char.code '-') Bad_hyphen34
      |> cons_if (cps.(n - 1) = Char.code '-') Trailing_hyphen
      |> cons_if (cps.(0) = Char.code '-') Leading_hyphen
      |> cons_if (is_combining cps.(0)) Leading_combining_mark
      |> cons_if (not (Unicode.Normalize.is_nfc cps)) Not_nfc
    in
    let issues = ref tail in
    for i = n - 1 downto 0 do
      let cp = cps.(i) in
      match property cp with
      | Pvalid -> ()
      | Mapped _ | Disallowed -> issues := Unpermitted_char cp :: !issues
    done;
    !issues
  end

let alabel_issues l =
  if not (Dns.is_a_label_candidate l) then [ Malformed_punycode "missing xn-- prefix" ]
  else begin
    let body = alabel_body l in
    match Punycode.decode body with
    | Error m -> [ Malformed_punycode m ]
    | Ok [||] -> [ Malformed_punycode "empty A-label body" ]
    | Ok cps ->
        let issues =
          (* The decoded form must not be pure ASCII and must
             re-encode to the same body (canonical form). *)
          match Punycode.encode cps with
          | Error m -> [ Malformed_punycode m ]
          | Ok reencoded ->
              if not (String.equal reencoded body) then [ Non_canonical_alabel ] else []
        in
        let issues = if String.length l > 63 then Encoded_label_too_long :: issues else issues in
        (* Hyphen-3-4 does not apply to the xn-- prefix itself, so drop
           that issue from the decoded label check. *)
        let ulabel =
          List.filter (fun i -> i <> Bad_hyphen34) (ulabel_issues cps)
        in
        issues @ ulabel
  end

let label_to_ascii label =
  let cps = Unicode.Codec.cps_of_utf8 label in
  let mapped =
    Array.map (fun cp -> match property cp with Mapped m -> m | Pvalid | Disallowed -> cp) cps
  in
  let all_ascii = Array.for_all (fun cp -> cp < 0x80) mapped in
  if all_ascii then
    (* Plain NR-LDH label: the DNS-syntax checks of {!Dns.check} apply,
       not the U-label rules. *)
    Ok (Unicode.Codec.utf8_of_cps mapped)
  else begin
    let issues = ulabel_issues mapped in
    if issues <> [] then Error issues
    else
      match Punycode.encode mapped with
      | Error m -> Error [ Malformed_punycode m ]
      | Ok body ->
          let alabel = "xn--" ^ body in
          if String.length alabel > 63 then Error [ Encoded_label_too_long ]
          else Ok alabel
  end

let label_to_unicode l =
  if Dns.is_a_label_candidate l then begin
    match Punycode.decode_utf8 (alabel_body l) with
    | Ok text -> Ok text
    | Error m -> Error [ Malformed_punycode m ]
  end
  else Ok l

let to_ascii domain =
  let labels = Dns.split_labels domain in
  let results = List.map (fun l -> (l, label_to_ascii l)) labels in
  let errors =
    List.filter_map
      (function l, Error issues -> Some (l, issues) | _, Ok _ -> None)
      results
  in
  if errors <> [] then Error errors
  else
    Ok
      (String.concat "."
         (List.map (function _, Ok a -> a | _, Error _ -> assert false) results))

let to_unicode domain =
  Dns.split_labels domain
  |> List.map (fun l -> match label_to_unicode l with Ok u -> u | Error _ -> l)
  |> String.concat "."

let domain_issues domain =
  Dns.split_labels domain
  |> List.filter_map (fun l ->
         if l = "" then None
         else if Dns.is_a_label_candidate l then
           match alabel_issues l with [] -> None | issues -> Some (l, issues)
         else begin
           (* NR-LDH labels: only check DISALLOWED non-ASCII content
              (raw Unicode in a DNSName is itself a violation, caught
              by the DNS-syntax lints). *)
           let cps = Unicode.Codec.cps_of_utf8 l in
           let bad =
             Array.to_list cps
             |> List.filter (fun cp -> cp >= 0x80 && property cp = Disallowed)
             |> List.map (fun cp -> Unpermitted_char cp)
           in
           match bad with [] -> None | issues -> Some (l, issues)
         end)

let is_idn domain =
  Dns.split_labels domain
  |> List.exists (fun l ->
         Dns.is_a_label_candidate l || String.exists (fun c -> Char.code c >= 0x80) l)
