(* Tests for the IDNA library: Punycode, DNS syntax, IDNA2008 label
   validation. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- punycode -------------------------------------------------------- *)

(* Sample vectors from RFC 3492 §7.1 plus common IDN labels. *)
let punycode_vectors =
  [
    ("b\xC3\xBCcher", "bcher-kva");
    ("m\xC3\xBCnchen", "mnchen-3ya");
    ("caf\xC3\xA9", "caf-dma");
    (* RFC 3492 (L) Chinese *)
    ("\xE4\xBB\x96\xE4\xBB\xAC\xE4\xB8\xBA\xE4\xBB\x80\xE4\xB9\x88\xE4\xB8\x8D\xE8\xAF\xB4\xE4\xB8\xAD\xE6\x96\x87",
     "ihqwcrb4cv8a8dqg056pqjye");
    (* Mixed case-ish: "3年B組金八先生" *)
    ("3\xE5\xB9\xB4B\xE7\xB5\x84\xE9\x87\x91\xE5\x85\xAB\xE5\x85\x88\xE7\x94\x9F",
     "3B-ww4c5e180e575a65lsy2b");
    (* Pure ASCII keeps a trailing delimiter. *)
    ("abc", "abc-");
  ]

let test_punycode_vectors () =
  List.iter
    (fun (u, p) ->
      check
        (Alcotest.result Alcotest.string Alcotest.string)
        ("encode " ^ p) (Ok p) (Idna.Punycode.encode_utf8 u);
      check
        (Alcotest.result Alcotest.string Alcotest.string)
        ("decode " ^ p) (Ok u) (Idna.Punycode.decode_utf8 p))
    punycode_vectors

let test_punycode_errors () =
  List.iter
    (fun bad ->
      check Alcotest.bool ("reject " ^ bad) true
        (Result.is_error (Idna.Punycode.decode bad)))
    [ "ab_c"; "a!b"; "caf\xC3\xA9" (* non-basic before delimiter *) ]

let scalar_nonascii =
  QCheck.Gen.(
    frequency [ (3, int_range 0xA1 0x2FFF); (1, int_range 0x3040 0xFFFD) ]
    |> map (fun cp -> if Unicode.Cp.is_surrogate cp then 0x4E2D else cp))

let label_gen =
  QCheck.make
    ~print:(fun a -> String.concat ";" (List.map string_of_int (Array.to_list a)))
    QCheck.Gen.(
      array_size (int_range 1 20)
        (frequency [ (3, int_range 0x61 0x7A); (2, scalar_nonascii) ]))

let prop_punycode_roundtrip =
  QCheck.Test.make ~name:"punycode roundtrip" ~count:500 label_gen (fun cps ->
      match Idna.Punycode.encode cps with
      | Ok body -> Idna.Punycode.decode body = Ok cps
      | Error _ -> false)

(* --- DNS syntax ------------------------------------------------------ *)

let test_dns_syntax () =
  let ok = Idna.Dns.is_ldh_name in
  check Alcotest.bool "plain" true (ok "www.example.com");
  check Alcotest.bool "digits" true (ok "3com.example");
  check Alcotest.bool "wildcard" true (ok "*.example.com");
  check Alcotest.bool "trailing root dot" true (ok "example.com.");
  check Alcotest.bool "underscore" false (ok "foo_bar.example.com");
  check Alcotest.bool "space" false (ok "foo bar.example.com");
  check Alcotest.bool "leading hyphen" false (ok "-x.example.com");
  check Alcotest.bool "empty label" false (ok "a..b");
  check Alcotest.bool "empty" false (ok "");
  check Alcotest.bool "long label" false (ok (String.make 64 'a' ^ ".com"));
  check Alcotest.bool "63-char label ok" true (ok (String.make 63 'a' ^ ".com"));
  check Alcotest.bool "name too long" false
    (ok (String.concat "." (List.init 30 (fun _ -> String.make 9 'a'))))

let test_alabel_detection () =
  check Alcotest.bool "xn--" true (Idna.Dns.is_a_label_candidate "xn--bcher-kva");
  check Alcotest.bool "XN-- case" true (Idna.Dns.is_a_label_candidate "XN--BCHER-KVA");
  check Alcotest.bool "plain" false (Idna.Dns.is_a_label_candidate "bcher");
  check Alcotest.bool "short" false (Idna.Dns.is_a_label_candidate "xn-")

(* --- IDNA ------------------------------------------------------------ *)

let test_property () =
  check Alcotest.bool "lowercase pvalid" true (Idna.property (Char.code 'a') = Idna.Pvalid);
  check Alcotest.bool "digit pvalid" true (Idna.property (Char.code '7') = Idna.Pvalid);
  check Alcotest.bool "uppercase mapped" true
    (Idna.property (Char.code 'A') = Idna.Mapped (Char.code 'a'));
  check Alcotest.bool "space disallowed" true (Idna.property 0x20 = Idna.Disallowed);
  check Alcotest.bool "zwsp disallowed" true (Idna.property 0x200B = Idna.Disallowed);
  check Alcotest.bool "soft hyphen disallowed" true (Idna.property 0xAD = Idna.Disallowed);
  check Alcotest.bool "multiply sign disallowed" true (Idna.property 0xD7 = Idna.Disallowed);
  check Alcotest.bool "u-umlaut pvalid" true (Idna.property 0xFC = Idna.Pvalid);
  check Alcotest.bool "cjk pvalid" true (Idna.property 0x4E2D = Idna.Pvalid);
  check Alcotest.bool "emoji disallowed" true (Idna.property 0x1F600 = Idna.Disallowed);
  check Alcotest.bool "surrogate disallowed" true (Idna.property 0xD800 = Idna.Disallowed)

let test_to_ascii () =
  check Alcotest.bool "bucher" true
    (Idna.to_ascii "b\xC3\xBCcher.example.com" = Ok "xn--bcher-kva.example.com");
  check Alcotest.bool "uppercase mapped" true
    (Idna.to_ascii "BUCHER.EXAMPLE.COM" = Ok "bucher.example.com");
  check Alcotest.bool "zwsp rejected" true
    (Result.is_error (Idna.to_ascii "pay\xE2\x80\x8Bpal.com"));
  check Alcotest.bool "bidi mix rejected" true
    (Result.is_error (Idna.to_ascii "ab\xD7\x90cd.com"))

let test_to_unicode () =
  check Alcotest.string "roundtrip display" "b\xC3\xBCcher.example.com"
    (Idna.to_unicode "xn--bcher-kva.example.com");
  (* Undecodable labels are preserved. *)
  check Alcotest.string "kept" "xn--ab_c.example.com" (Idna.to_unicode "xn--ab_c.example.com")

let test_alabel_issues () =
  let has_issue pred l = List.exists pred (Idna.alabel_issues l) in
  check Alcotest.bool "valid label clean" true (Idna.alabel_issues "xn--bcher-kva" = []);
  check Alcotest.bool "malformed" true
    (has_issue (function Idna.Malformed_punycode _ -> true | _ -> false) "xn--ab_c");
  check Alcotest.bool "empty body malformed" true
    (has_issue (function Idna.Malformed_punycode _ -> true | _ -> false) "xn--");
  check Alcotest.bool "lrm unpermitted" true
    (has_issue (function Idna.Unpermitted_char 0x200E -> true | _ -> false)
       "xn--www-hn0a");
  check Alcotest.bool "non-nfc" true
    (has_issue (function Idna.Not_nfc -> true | _ -> false) "xn--ecole-6ed")

let test_domain_issues () =
  check Alcotest.bool "clean idn" true
    (Idna.domain_issues "xn--bcher-kva.example.com" = []);
  check Alcotest.bool "clean ascii" true (Idna.domain_issues "www.example.com" = []);
  check Alcotest.bool "deceptive flagged" true
    (Idna.domain_issues "xn--www-hn0a.example.com" <> [])

let test_bidi_rule () =
  let ok s = Idna.ulabel_issues (Unicode.Codec.cps_of_utf8 s) in
  let has_bidi l = List.mem Idna.Bidi_violation l in
  (* Pure Hebrew label: fine. *)
  check Alcotest.bool "hebrew ok" false
    (has_bidi (ok "\xD7\xA9\xD7\x9C\xD7\x95\xD7\x9D" (* שלום *)));
  (* Pure Arabic label: fine. *)
  check Alcotest.bool "arabic ok" false
    (has_bidi (ok "\xD8\xB4\xD8\xA8\xD9\x83\xD8\xA9" (* شبكة *)));
  (* Latin + Hebrew mixed: condition 2/5 violation. *)
  check Alcotest.bool "latin-hebrew mix" true
    (has_bidi (ok "ab\xD7\x90cd"));
  (* RTL label ending in a Latin letter. *)
  check Alcotest.bool "rtl ending latin" true
    (has_bidi (ok "\xD7\x90\xD7\x91x"));
  (* Arabic label mixing European and Arabic digits (condition 4). *)
  check Alcotest.bool "en+an mix" true
    (has_bidi (ok "\xD8\xB41\xD9\xA1"))

let test_is_idn () =
  check Alcotest.bool "alabel" true (Idna.is_idn "xn--bcher-kva.de");
  check Alcotest.bool "raw unicode" true (Idna.is_idn "b\xC3\xBCcher.de");
  check Alcotest.bool "ascii" false (Idna.is_idn "example.com")

let prop_to_ascii_ldh =
  QCheck.Test.make ~name:"to_ascii output is LDH or error" ~count:300 label_gen
    (fun cps ->
      let label = Unicode.Codec.utf8_of_cps cps in
      match Idna.to_ascii (label ^ ".example") with
      | Ok ascii -> String.for_all (fun c -> Char.code c < 0x80) ascii
      | Error _ -> true)

let suite =
  [
    Alcotest.test_case "punycode vectors" `Quick test_punycode_vectors;
    Alcotest.test_case "punycode errors" `Quick test_punycode_errors;
    Alcotest.test_case "dns syntax" `Quick test_dns_syntax;
    Alcotest.test_case "a-label detection" `Quick test_alabel_detection;
    Alcotest.test_case "derived property" `Quick test_property;
    Alcotest.test_case "to_ascii" `Quick test_to_ascii;
    Alcotest.test_case "to_unicode" `Quick test_to_unicode;
    Alcotest.test_case "a-label issues" `Quick test_alabel_issues;
    Alcotest.test_case "domain issues" `Quick test_domain_issues;
    Alcotest.test_case "bidi rule (rfc 5893)" `Quick test_bidi_rule;
    Alcotest.test_case "is_idn" `Quick test_is_idn;
    qtest prop_punycode_roundtrip;
    qtest prop_to_ascii_ldh;
  ]
