(* Tests for the TLS parser models and the differential harness: the
   Table 4/5 cells the paper's §5 findings rest on. *)

let check = Alcotest.check

let model name =
  match Tlsparsers.Models.find name with
  | Some m -> m
  | None -> Alcotest.failf "model %s missing" name

let decode name st raw = (model name).Tlsparsers.Model.decode_name_attr st raw

let so = Alcotest.option Alcotest.string

let test_gnutls_utf8_everywhere () =
  (* GnuTLS decodes PrintableString as UTF-8 (over-tolerant). *)
  check so "printable utf8" (Some "caf\xC3\xA9")
    (decode "GnuTLS" Asn1.Str_type.Printable_string "caf\xC3\xA9");
  (* Invalid UTF-8 fails hard. *)
  check so "latin1 byte fails" None
    (decode "GnuTLS" Asn1.Str_type.Printable_string "caf\xE9")

let test_forge_utf8_as_latin1 () =
  (* The incompatible decoding of Table 4: é (UTF-8) becomes Ã©. *)
  check so "mojibake" (Some "\xC3\x83\xC2\xA9")
    (decode "Forge" Asn1.Str_type.Utf8_string "\xC3\xA9");
  check so "bmp unsupported" None (decode "Forge" Asn1.Str_type.Bmp_string "\x00a")

let test_openssl_hex_escapes () =
  check so "escapes control and high bytes" (Some "a\\x01b\\xFF")
    (decode "OpenSSL" Asn1.Str_type.Printable_string "a\x01b\xFF");
  (* BMPString read byte-wise: the githube.cn vector. *)
  check so "bytewise bmp" (Some "githube.cn")
    (decode "OpenSSL" Asn1.Str_type.Bmp_string "githube.cn")

let test_java_replacement () =
  check so "fffd replacement" (Some "caf\xEF\xBF\xBD\xEF\xBF\xBD")
    (decode "Java.security.cert" Asn1.Str_type.Printable_string "caf\xC3\xA9");
  check so "bytewise bmp" (Some "githube.cn")
    (decode "Java.security.cert" Asn1.Str_type.Bmp_string "githube.cn")

let test_strict_decoders () =
  List.iter
    (fun name ->
      check so (name ^ " rejects bad ascii") None
        (decode name Asn1.Str_type.Printable_string "caf\xE9"))
    [ "Golang Crypto"; "Node.js Crypto"; "Cryptography"; "BouncyCastle" ];
  (* Go additionally enforces the PrintableString repertoire. *)
  check so "go rejects @" None (decode "Golang Crypto" Asn1.Str_type.Printable_string "a@b");
  check so "node accepts @" (Some "a@b")
    (decode "Node.js Crypto" Asn1.Str_type.Printable_string "a@b")

let test_bmp_utf16_tolerance () =
  let pair = "\xD8\x3D\xDE\x00" (* U+1F600 as a surrogate pair *) in
  check so "cryptography decodes pairs" (Some "\xF0\x9F\x98\x80")
    (decode "Cryptography" Asn1.Str_type.Bmp_string pair);
  check so "bouncycastle decodes pairs" (Some "\xF0\x9F\x98\x80")
    (decode "BouncyCastle" Asn1.Str_type.Bmp_string pair)

let test_pyopenssl_crldp_dots () =
  let m = model "PyOpenSSL" in
  check so "controls become dots" (Some "http://ssl.test.com/ca.crl")
    (m.Tlsparsers.Model.decode_gn Tlsparsers.Model.Crldp "http://ssl\x01test.com/ca.crl");
  (* Other GN fields keep the control byte (Latin-1 passthrough). *)
  check so "san keeps control" (Some "a\x01b")
    (m.Tlsparsers.Model.decode_gn Tlsparsers.Model.San "a\x01b")

let test_field_support () =
  let supports name field = (model name).Tlsparsers.Model.supports field in
  check Alcotest.bool "openssl dn only" true (supports "OpenSSL" Tlsparsers.Model.Subject_dn);
  check Alcotest.bool "openssl no san" false (supports "OpenSSL" Tlsparsers.Model.San);
  check Alcotest.bool "bouncycastle no san" false
    (supports "BouncyCastle" Tlsparsers.Model.San);
  check Alcotest.bool "cryptography all" true
    (List.for_all (supports "Cryptography") Tlsparsers.Model.all_fields)

(* --- inference engine --------------------------------------------------- *)

let test_infer_identifies_decoders () =
  let probe raws f = List.map (fun raw -> { Tlsparsers.Infer.raw; output = f raw }) raws in
  let raws = Tlsparsers.Testgen.byte_battery in
  let expect name f m h =
    match Tlsparsers.Infer.infer (probe raws f) with
    | Some (m', h') when m = m' && h = h' -> ()
    | Some (m', h') ->
        Alcotest.failf "%s: inferred %s/%s" name
          (Tlsparsers.Infer.method_name m')
          (Tlsparsers.Infer.handling_name h')
    | None -> Alcotest.failf "%s: no inference" name
  in
  expect "latin1"
    (fun raw -> Some (Tlsparsers.Model.latin1 raw))
    Tlsparsers.Infer.M_latin1 Tlsparsers.Infer.H_none;
  expect "utf8 strict" Tlsparsers.Model.utf8_strict Tlsparsers.Infer.M_utf8
    Tlsparsers.Infer.H_none;
  expect "ascii strict" Tlsparsers.Model.ascii_strict Tlsparsers.Infer.M_ascii
    Tlsparsers.Infer.H_none;
  expect "ascii + fffd"
    (fun raw -> Some (Tlsparsers.Model.ascii_replace 0xFFFD raw))
    Tlsparsers.Infer.M_ascii Tlsparsers.Infer.H_replace_fffd

let test_infer_classification () =
  let open Tlsparsers.Infer in
  check (Alcotest.list Alcotest.string) "compliant" [ "compliant" ]
    (List.map verdict_name
       (classify ~declared:Asn1.Str_type.Printable_string (Some (M_ascii, H_none))
          ~all_none:false));
  check (Alcotest.list Alcotest.string) "over tolerant" [ "over-tolerant" ]
    (List.map verdict_name
       (classify ~declared:Asn1.Str_type.Printable_string (Some (M_utf8, H_none))
          ~all_none:false));
  check (Alcotest.list Alcotest.string) "incompatible" [ "incompatible" ]
    (List.map verdict_name
       (classify ~declared:Asn1.Str_type.Utf8_string (Some (M_latin1, H_none))
          ~all_none:false));
  check (Alcotest.list Alcotest.string) "unsupported" [ "unsupported" ]
    (List.map verdict_name
       (classify ~declared:Asn1.Str_type.Bmp_string None ~all_none:true))

(* --- harness matrices ---------------------------------------------------- *)

let find_cell matrix scenario_name lib =
  List.find_map
    (fun (s, cells) ->
      if Tlsparsers.Harness.scenario_name s = scenario_name then
        List.find_opt (fun (c : Tlsparsers.Harness.cell) -> c.Tlsparsers.Harness.library = lib) cells
      else None)
    matrix

let test_table4_key_cells () =
  let matrix = Tlsparsers.Harness.decoding_matrix () in
  let has_verdict scenario lib v =
    match find_cell matrix scenario lib with
    | Some cell -> List.mem v cell.Tlsparsers.Harness.verdicts
    | None -> false
  in
  let open Tlsparsers.Infer in
  check Alcotest.bool "gnutls printable over-tolerant" true
    (has_verdict "PrintableString in Name" "GnuTLS" Over_tolerant);
  check Alcotest.bool "forge utf8 incompatible" true
    (has_verdict "UTF8String in Name" "Forge" Incompatible);
  check Alcotest.bool "openssl bmp incompatible" true
    (has_verdict "BMPString in Name" "OpenSSL" Incompatible);
  check Alcotest.bool "java bmp incompatible" true
    (has_verdict "BMPString in Name" "Java.security.cert" Incompatible);
  check Alcotest.bool "cryptography bmp over-tolerant" true
    (has_verdict "BMPString in Name" "Cryptography" Over_tolerant);
  check Alcotest.bool "go printable compliant" true
    (has_verdict "PrintableString in Name" "Golang Crypto" Compliant);
  check Alcotest.bool "forge bmp unsupported" true
    (has_verdict "BMPString in Name" "Forge" Unsupported);
  check Alcotest.bool "openssl gn unsupported" true
    (has_verdict "IA5String in GN" "OpenSSL" Unsupported)

let test_table5_escaping () =
  let rows = Tlsparsers.Harness.escaping_rows () in
  let cell row lib =
    match List.assoc_opt row rows with
    | Some cells -> List.assoc_opt lib cells
    | None -> None
  in
  check Alcotest.bool "openssl oneline exploited" true
    (cell "RFC2253 DN" "OpenSSL" = Some Tlsparsers.Harness.Esc_exploited);
  check Alcotest.bool "pyopenssl gn exploited" true
    (cell "GN escaping" "PyOpenSSL" = Some Tlsparsers.Harness.Esc_exploited);
  check Alcotest.bool "cryptography 4514 ok" true
    (cell "RFC4514 DN" "Cryptography" = Some Tlsparsers.Harness.Esc_ok);
  check Alcotest.bool "go structured" true
    (cell "RFC2253 DN" "Golang Crypto" = Some Tlsparsers.Harness.Esc_na);
  check Alcotest.bool "node unexploited violation" true
    (cell "RFC2253 DN" "Node.js Crypto" = Some Tlsparsers.Harness.Esc_violation)

let test_every_library_has_a_violation () =
  (* §5.2: "each TLS library exhibited at least one violation" — our Go
     model enforces every check (its Table 5 row is all-clear in the
     paper as well), so it is the one exception. *)
  let tol = Tlsparsers.Harness.illegal_char_rows () in
  let esc = Tlsparsers.Harness.escaping_rows () in
  List.iter
    (fun (m : Tlsparsers.Model.t) ->
      let lib = m.Tlsparsers.Model.name in
      let tolerated =
        List.exists
          (fun (_, cells) -> List.assoc_opt lib cells = Some Tlsparsers.Harness.Tolerated)
          tol
      in
      let escaping =
        List.exists
          (fun (_, cells) ->
            match List.assoc_opt lib cells with
            | Some Tlsparsers.Harness.Esc_violation | Some Tlsparsers.Harness.Esc_exploited
              ->
                true
            | _ -> false)
          esc
      in
      let decoding =
        List.exists
          (fun (_, cells) ->
            List.exists
              (fun (c : Tlsparsers.Harness.cell) ->
                c.Tlsparsers.Harness.library = lib
                && List.exists
                     (fun v ->
                       v = Tlsparsers.Infer.Over_tolerant
                       || v = Tlsparsers.Infer.Incompatible
                       || v = Tlsparsers.Infer.Modified)
                     c.Tlsparsers.Harness.verdicts)
              cells)
          (Tlsparsers.Harness.decoding_matrix ())
      in
      if lib <> "Golang Crypto" && not (tolerated || escaping || decoding) then
        Alcotest.failf "%s shows no violation anywhere" lib)
    Tlsparsers.Models.all

let test_testgen () =
  let cert =
    Tlsparsers.Testgen.make
      (Tlsparsers.Testgen.Subject_attr
         (X509.Attr.Organization_name, Asn1.Str_type.Bmp_string, "githube.cn"))
  in
  (match Tlsparsers.Testgen.raw_subject_attr cert X509.Attr.Organization_name with
  | Some (st, raw) ->
      check Alcotest.bool "type preserved" true (st = Asn1.Str_type.Bmp_string);
      check Alcotest.string "raw preserved" "githube.cn" raw
  | None -> Alcotest.fail "attr missing");
  let cert = Tlsparsers.Testgen.make (Tlsparsers.Testgen.San_dns "a\x00b.com") in
  check (Alcotest.list Alcotest.string) "san payload" [ "a\x00b.com" ]
    (Tlsparsers.Testgen.raw_san_payloads cert);
  check Alcotest.bool "block sweep covers all non-surrogate blocks" true
    (List.length (Tlsparsers.Testgen.block_samples ())
    = Array.length Unicode.Blocks.non_surrogate);
  check Alcotest.int "c0-ff sweep" 256 (List.length (Tlsparsers.Testgen.c0_to_ff_samples ()))

let test_api_table () =
  check Alcotest.int "nine libraries" 9 (List.length Tlsparsers.Apis.all);
  (* Every model has an API row and vice versa. *)
  List.iter
    (fun (m : Tlsparsers.Model.t) ->
      check Alcotest.bool (m.Tlsparsers.Model.name ^ " has APIs") true
        (Tlsparsers.Apis.find m.Tlsparsers.Model.name <> None))
    Tlsparsers.Models.all;
  check (Alcotest.option Alcotest.string) "openssl subject API"
    (Some "X509_NAME_oneline()")
    (Tlsparsers.Apis.api_for "OpenSSL" Tlsparsers.Model.Subject_dn);
  check (Alcotest.option Alcotest.string) "openssl has no SAN API" None
    (Tlsparsers.Apis.api_for "OpenSSL" Tlsparsers.Model.San);
  check (Alcotest.option Alcotest.string) "gnutls crldp API"
    (Some "gnutls_x509_crt_get_crl_dist_points()")
    (Tlsparsers.Apis.api_for "GnuTLS" Tlsparsers.Model.Crldp)

(* --- ASCII fast paths ---------------------------------------------- *)

(* [ascii_strict], [latin1] and [utf8_strict] hand an all-ASCII input
   back as is.  These are the codec formulas they stand for. *)
let ref_ascii_strict raw =
  match Unicode.Codec.decode Unicode.Codec.Ascii raw with
  | Ok cps -> Some (Unicode.Codec.utf8_of_cps cps)
  | Error _ -> None

let ref_latin1 raw = Unicode.Codec.utf8_of_cps (Unicode.Codec.cps_of_latin1 raw)

let ref_utf8_strict raw =
  match Unicode.Codec.decode Unicode.Codec.Utf8 raw with
  | Ok cps -> Some (Unicode.Codec.utf8_of_cps cps)
  | Error _ -> None

let blocks_agree raw =
  Tlsparsers.Model.ascii_strict raw = ref_ascii_strict raw
  && Tlsparsers.Model.latin1 raw = ref_latin1 raw
  && Tlsparsers.Model.utf8_strict raw = ref_utf8_strict raw

let single_bytes = List.init 256 (fun b -> String.make 1 (Char.chr b))

(* Mostly ASCII with the odd high byte, like real probe payloads. *)
let ascii_heavy_char g =
  if Ucrypto.Prng.int g 8 = 0 then Char.chr (0x80 + Ucrypto.Prng.int g 0x80)
  else Char.chr (Ucrypto.Prng.int g 0x80)

let seeded_ascii_heavy =
  let g = Ucrypto.Prng.create 18 in
  List.init 256 (fun _ -> String.init (Ucrypto.Prng.int g 24) (fun _ -> ascii_heavy_char g))

let test_fast_path_blocks () =
  List.iter
    (fun raw ->
      check Alcotest.bool (Printf.sprintf "blocks agree on %S" raw) true (blocks_agree raw))
    (single_bytes @ Tlsparsers.Testgen.byte_battery @ seeded_ascii_heavy)

let prop_fast_path_blocks =
  QCheck.Test.make ~name:"ascii fast paths match the codec" ~count:1000
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          string_size (int_range 0 40)
            ~gen:(frequency [ (7, map Char.chr (int_range 0 0x7F)); (1, char) ])))
    blocks_agree

(* Every model's output over the same inputs, for every declared string
   type and every GeneralName field, folded into one digest.  The
   constant was computed with the codec-only building blocks, before
   the ASCII fast paths existed; a model change that is meant to alter
   decoding must update it. *)
let model_outputs_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let out r =
    Buffer.add_string buf
      (match r with
      | Ok (Some s) -> "S" ^ string_of_int (String.length s) ^ ":" ^ s
      | Ok None -> "N"
      | Error e -> "E" ^ Printexc.to_string e);
    Buffer.add_char buf '\n'
  in
  let inputs = single_bytes @ Tlsparsers.Testgen.byte_battery @ seeded_ascii_heavy in
  List.iter
    (fun (m : Tlsparsers.Model.t) ->
      List.iter
        (fun raw ->
          List.iter
            (fun st ->
              out (try Ok (m.Tlsparsers.Model.decode_name_attr st raw) with e -> Error e))
            Asn1.Str_type.all;
          List.iter
            (fun field ->
              out (try Ok (m.Tlsparsers.Model.decode_gn field raw) with e -> Error e))
            Tlsparsers.Model.all_fields)
        inputs)
    Tlsparsers.Models.all;
  Ucrypto.Sha256.hex (Buffer.contents buf)

let test_model_outputs_golden () =
  check Alcotest.string "model outputs digest"
    "3c34db3a5eaaa873230fda9afad8b8aac90900903b9c16723e7bb587c2de3bbf"
    (model_outputs_digest ())

let suite =
  [
    Alcotest.test_case "gnutls utf8 everywhere" `Quick test_gnutls_utf8_everywhere;
    Alcotest.test_case "forge utf8-as-latin1" `Quick test_forge_utf8_as_latin1;
    Alcotest.test_case "openssl hex escapes" `Quick test_openssl_hex_escapes;
    Alcotest.test_case "java fffd replacement" `Quick test_java_replacement;
    Alcotest.test_case "strict decoders" `Quick test_strict_decoders;
    Alcotest.test_case "bmp utf16 tolerance" `Quick test_bmp_utf16_tolerance;
    Alcotest.test_case "pyopenssl crldp dots" `Quick test_pyopenssl_crldp_dots;
    Alcotest.test_case "field support" `Quick test_field_support;
    Alcotest.test_case "inference identifies decoders" `Quick test_infer_identifies_decoders;
    Alcotest.test_case "inference classification" `Quick test_infer_classification;
    Alcotest.test_case "table 4 key cells" `Quick test_table4_key_cells;
    Alcotest.test_case "table 5 escaping" `Quick test_table5_escaping;
    Alcotest.test_case "every library violates something" `Quick
      test_every_library_has_a_violation;
    Alcotest.test_case "test cert generator" `Quick test_testgen;
    Alcotest.test_case "appendix E api table" `Quick test_api_table;
    Alcotest.test_case "ascii fast paths match the codec" `Quick test_fast_path_blocks;
    QCheck_alcotest.to_alcotest prop_fast_path_blocks;
    Alcotest.test_case "model outputs golden" `Quick test_model_outputs_golden;
  ]
