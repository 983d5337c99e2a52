(* The grammar-aware candidate generator.

   Every candidate is a pure function of [(seed, round, index)] plus
   the corpus snapshot the round was launched with: shards of a round
   can regenerate their index slice independently and a resumed run
   regenerates byte-identical candidates.  A candidate is drawn first
   and built second: a structured operation draws one mutated field,
   and [spec_of_draw] builds the real signed certificate around it
   through [Testgen] (all else default), so a caller that has already
   seen the field can skip the build; [op_byte_mutant] recombines a
   corpus parent through the byte-level [Faults.Mutator] kinds and
   draws its finished DER. *)

type context = Cn | San

let context_name = function Cn -> "cn" | San -> "san"

type spec = {
  op : string;
  context : context;
  declared : Asn1.Str_type.t;
  payload : string;
  der : string;
}

(* What the PRNG decides, before any certificate is built: a structured
   operation's field and payload, or a byte mutant's finished DER. *)
type draw =
  | Structured of {
      op : string;
      context : context;
      declared : Asn1.Str_type.t;
      payload : string;
    }
  | Mutant of { op : string; der : string }

(* ASCII characters with a known non-ASCII lookalike in the
   [Unicode.Confusables] table (Cyrillic and Greek homographs). *)
let lookalikes =
  [ ('a', 0x0430); ('e', 0x0435); ('o', 0x043E); ('p', 0x0440); ('c', 0x0441);
    ('y', 0x0443); ('x', 0x0445); ('i', 0x0456); ('j', 0x0458); ('s', 0x0455);
    ('a', 0x03B1); ('o', 0x03BF) ]

let ascii_domains =
  [| "test.com"; "example.org"; "paypal.com"; "github.com"; "secure.example" |]

(* UTF-8 texts spanning the scripts the paper's T1/T2 findings use. *)
let unicode_texts =
  [| "b\xC3\xBCcher.example" (* bücher *); "caf\xC3\xA9.example";
     "\xD0\xBC\xD0\xB8\xD1\x80.example" (* Cyrillic мир *);
     "\xE4\xB8\xAD\xE6\x96\x87.cn" (* Han 中文 *);
     "\xCE\xB1\xCE\xB2.gr" (* Greek αβ *); "na\xC3\xAFve.example" |]

let cn_types =
  [| Asn1.Str_type.Utf8_string; Asn1.Str_type.Printable_string;
     Asn1.Str_type.Ia5_string; Asn1.Str_type.Bmp_string;
     Asn1.Str_type.Teletex_string; Asn1.Str_type.Visible_string;
     Asn1.Str_type.Universal_string; Asn1.Str_type.Numeric_string |]

let encodings =
  [| Unicode.Codec.Utf8; Unicode.Codec.Ucs2; Unicode.Codec.Utf16be;
     Unicode.Codec.Iso8859_1; Unicode.Codec.Ascii |]

let build context declared payload =
  let cert =
    match context with
    | Cn ->
        Tlsparsers.Testgen.make
          (Tlsparsers.Testgen.Subject_attr (X509.Attr.Common_name, declared, payload))
    | San -> Tlsparsers.Testgen.make (Tlsparsers.Testgen.San_dns payload)
  in
  cert.X509.Certificate.der

let splice_confusables g domain =
  let cps = Unicode.Codec.cps_of_utf8 domain in
  let eligible = ref [] in
  Array.iteri
    (fun i cp ->
      if cp < 0x80 && List.mem_assoc (Char.chr cp) lookalikes then
        eligible := i :: !eligible)
    cps;
  match !eligible with
  | [] -> domain
  | l ->
      let arr = Array.of_list l in
      let n_sub = 1 + Ucrypto.Prng.int g (min 3 (Array.length arr)) in
      for _ = 1 to n_sub do
        let i = arr.(Ucrypto.Prng.int g (Array.length arr)) in
        let choices = List.filter (fun (c, _) -> Char.code c = cps.(i)) lookalikes in
        match choices with
        | [] -> ()
        | _ -> cps.(i) <- snd (List.nth choices (Ucrypto.Prng.int g (List.length choices)))
      done;
      Unicode.Codec.utf8_of_cps cps

let random_ascii g n =
  String.init n (fun _ -> Char.chr (Char.code 'a' + Ucrypto.Prng.int g 26))

(* Declared string type disagrees with the payload's actual encoding
   (the paper's T1: CA-side repertoire violations). *)
let op_redeclare g =
  let text =
    if Ucrypto.Prng.bool g then ascii_domains.(Ucrypto.Prng.int g (Array.length ascii_domains))
    else unicode_texts.(Ucrypto.Prng.int g (Array.length unicode_texts))
  in
  let declared = cn_types.(Ucrypto.Prng.int g (Array.length cn_types)) in
  (* raw UTF-8 octets under a possibly incompatible declaration *)
  Structured { op = "redeclare"; context = Cn; declared; payload = text }

(* Homograph splice into a DN attribute or a SAN dNSName. *)
let op_confusable g =
  let base = ascii_domains.(Ucrypto.Prng.int g (Array.length ascii_domains)) in
  let domain = splice_confusables g base in
  if Ucrypto.Prng.bool g then
    let declared =
      if Ucrypto.Prng.bool g then Asn1.Str_type.Utf8_string
      else Asn1.Str_type.Bmp_string
    in
    let payload =
      match declared with
      | Asn1.Str_type.Bmp_string -> (
          match
            Unicode.Codec.encode Unicode.Codec.Ucs2 (Unicode.Codec.cps_of_utf8 domain)
          with
          | Ok b -> b
          | Error _ -> domain)
      | _ -> domain
    in
    Structured { op = "confusable"; context = Cn; declared; payload }
  else
    (* non-ASCII bytes inside an IA5-declared dNSName *)
    Structured
      { op = "confusable"; context = San; declared = Asn1.Str_type.Ia5_string;
        payload = domain }

(* Oversized, malformed, or non-canonical A-labels in dNSNames. *)
let op_bad_alabel g =
  let label =
    match Ucrypto.Prng.int g 7 with
    | 0 -> "xn--" ^ random_ascii g (5 + Ucrypto.Prng.int g 10)
    | 1 -> "xn--" ^ String.make (60 + Ucrypto.Prng.int g 20) 'a'
    | 2 -> random_ascii g 2 ^ "--" ^ random_ascii g 4
    | 3 -> "-" ^ random_ascii g 6
    | 4 -> random_ascii g 6 ^ "-"
    | 5 -> String.make (64 + Ucrypto.Prng.int g 8) 'a'
    | _ -> "xn--" ^ String.uppercase_ascii (random_ascii g 8)
  in
  let domain =
    match Ucrypto.Prng.int g 3 with
    | 0 -> label ^ ".example"
    | 1 -> "www." ^ label ^ ".example"
    | _ -> label ^ "..example" (* empty label *)
  in
  Structured
    { op = "bad_alabel"; context = San; declared = Asn1.Str_type.Ia5_string;
      payload = domain }

(* NUL and C0 controls in every string context — the classic
   "paypal.com\x00.evil.com" shape and random in-place injections. *)
let op_nul_ctrl g =
  let base = ascii_domains.(Ucrypto.Prng.int g (Array.length ascii_domains)) in
  let bad_char =
    if Ucrypto.Prng.bool g then '\x00'
    else Char.chr (1 + Ucrypto.Prng.int g 0x1F)
  in
  let payload =
    if Ucrypto.Prng.bool g then base ^ String.make 1 bad_char ^ ".evil.example"
    else begin
      let pos = Ucrypto.Prng.int g (String.length base) in
      String.sub base 0 pos ^ String.make 1 bad_char
      ^ String.sub base pos (String.length base - pos)
    end
  in
  if Ucrypto.Prng.bool g then
    let declared =
      [| Asn1.Str_type.Printable_string; Asn1.Str_type.Ia5_string;
         Asn1.Str_type.Utf8_string |].(Ucrypto.Prng.int g 3)
    in
    Structured { op = "nul_ctrl"; context = Cn; declared; payload }
  else
    Structured
      { op = "nul_ctrl"; context = San; declared = Asn1.Str_type.Ia5_string;
        payload }

(* Cross-encode: serialize the text under one encoding, declare a type
   whose standard encoding is another (BMP/UTF-8/UCS-2 confusions). *)
let op_reencode g =
  let text = unicode_texts.(Ucrypto.Prng.int g (Array.length unicode_texts)) in
  let enc = encodings.(Ucrypto.Prng.int g (Array.length encodings)) in
  let payload =
    match Unicode.Codec.encode enc (Unicode.Codec.cps_of_utf8 text) with
    | Ok b when b <> "" -> b
    | _ -> text
  in
  let declared = cn_types.(Ucrypto.Prng.int g (Array.length cn_types)) in
  Structured { op = "reencode"; context = Cn; declared; payload }

(* Byte-level recombination of a corpus parent through the mutator. *)
let op_byte_mutant g corpus =
  let parent = corpus.(Ucrypto.Prng.int g (Array.length corpus)) in
  let mseed = Int64.to_int (Ucrypto.Prng.bits64 g) land max_int in
  let plan = Faults.Mutator.plan ~seed:mseed ~rate:1.0 () in
  let der, kind = Faults.Mutator.mutate plan ~index:0 parent in
  Mutant { op = "byte_mutant:" ^ Faults.Mutator.kind_name kind; der }

(* Rounds are capped at [max_round_size] candidates so
   [(round, index)] packs injectively into one stream index. *)
let max_round_size = 1 lsl 20

let draw ~seed ~round ~index ~corpus =
  let g = Ucrypto.Prng.of_pair seed ((round * max_round_size) + index) in
  let structured =
    [ (op_redeclare, 2.0); (op_confusable, 2.0); (op_bad_alabel, 2.0);
      (op_nul_ctrl, 2.0); (op_reencode, 1.5) ]
  in
  let choices =
    if Array.length corpus = 0 then structured
    else ((fun g -> op_byte_mutant g corpus), 3.0) :: structured
  in
  Ucrypto.Prng.weighted g choices g

let spec_of_draw = function
  | Structured { op; context; declared; payload } ->
      { op; context; declared; payload; der = build context declared payload }
  | Mutant { op; der } ->
      { op; context = Cn; declared = Asn1.Str_type.Utf8_string; payload = ""; der }

let candidate ~seed ~round ~index ~corpus =
  spec_of_draw (draw ~seed ~round ~index ~corpus)
