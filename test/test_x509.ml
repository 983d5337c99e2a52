(* Tests for the x509 library: DN handling and string representations,
   GeneralName, extensions, PEM, certificate lifecycle. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- attributes ------------------------------------------------------ *)

let test_attr_oids () =
  List.iter
    (fun a ->
      check Alcotest.bool (X509.Attr.name a) true (X509.Attr.of_oid (X509.Attr.oid a) = a))
    X509.Attr.all_known;
  check Alcotest.bool "unknown preserved" true
    (match X509.Attr.of_oid [ 1; 2; 3; 4 ] with
    | X509.Attr.Unknown o -> o = [ 1; 2; 3; 4 ]
    | _ -> false)

(* --- DN --------------------------------------------------------------- *)

let sample_dn =
  X509.Dn.of_list
    [ (X509.Attr.Country_name, "CZ");
      (X509.Attr.Organization_name, "Acme, s.r.o.");
      (X509.Attr.Common_name, "www.example.cz") ]

let test_dn_roundtrip () =
  match X509.Dn.decode (X509.Dn.encode sample_dn) with
  | Ok dn ->
      check Alcotest.string "re-encodes identically" (X509.Dn.encode sample_dn)
        (X509.Dn.encode dn)
  | Error m -> Alcotest.fail m

let test_dn_accessors () =
  check (Alcotest.list Alcotest.string) "get cn" [ "www.example.cz" ]
    (X509.Dn.get_text sample_dn X509.Attr.Common_name);
  check (Alcotest.option Alcotest.string) "first"
    (Some "www.example.cz")
    (Option.map X509.Dn.atv_text (X509.Dn.first sample_dn X509.Attr.Common_name));
  let dup =
    X509.Dn.single
      [ X509.Dn.atv X509.Attr.Common_name "one"; X509.Dn.atv X509.Attr.Common_name "two" ]
  in
  check (Alcotest.option Alcotest.string) "first of dup" (Some "one")
    (Option.map X509.Dn.atv_text (X509.Dn.first dup X509.Attr.Common_name))

let test_dn_strings () =
  check Alcotest.string "rfc4514 escapes comma" "CN=www.example.cz,O=Acme\\, s.r.o.,C=CZ"
    (X509.Dn.to_string sample_dn);
  check Alcotest.string "rfc1779 quotes" "C=CZ, O=\"Acme, s.r.o.\", CN=www.example.cz"
    (X509.Dn.to_string ~flavor:X509.Dn.Rfc1779 sample_dn);
  let tricky = X509.Dn.of_list [ (X509.Attr.Common_name, " lead#trail ") ] in
  let rendered = X509.Dn.to_string tricky in
  check Alcotest.string "leading space escaped" "CN=\\ lead#trail\\ " rendered;
  let hashy = X509.Dn.of_list [ (X509.Attr.Common_name, "#hash") ] in
  check Alcotest.string "leading hash escaped" "CN=\\#hash" (X509.Dn.to_string hashy);
  let nul = X509.Dn.single [ X509.Dn.atv_raw ~st:Asn1.Str_type.Utf8_string X509.Attr.Common_name "a\x00b" ] in
  check Alcotest.string "nul hex escaped (4514)" "CN=a\\00b" (X509.Dn.to_string nul)

let test_dn_normalized_compare () =
  let a = X509.Dn.of_list [ (X509.Attr.Organization_name, "Acme  Widgets") ] in
  let b = X509.Dn.of_list [ (X509.Attr.Organization_name, "ACME widgets ") ] in
  check Alcotest.bool "case/space folded" true (X509.Dn.equal_normalized a b);
  (* NFC folding: precomposed vs combining. *)
  let c = X509.Dn.of_list [ (X509.Attr.Organization_name, "St\xC3\xB6ri" (* ö *)) ] in
  let d = X509.Dn.of_list [ (X509.Attr.Organization_name, "Sto\xCC\x88ri" (* o + umlaut *)) ] in
  check Alcotest.bool "nfc folded" true (X509.Dn.equal_normalized c d);
  let e = X509.Dn.of_list [ (X509.Attr.Organization_name, "Other") ] in
  check Alcotest.bool "different orgs differ" false (X509.Dn.equal_normalized a e)

let test_dn_of_string () =
  (* Known forms. *)
  (match X509.Dn.of_string "CN=www.example.cz,O=Acme\\, s.r.o.,C=CZ" with
  | Ok dn -> check Alcotest.bool "roundtrip parse" true (X509.Dn.equal_normalized dn sample_dn)
  | Error m -> Alcotest.fail m);
  (* Hex escapes. *)
  (match X509.Dn.of_string "CN=a\\00b" with
  | Ok dn ->
      check (Alcotest.list Alcotest.string) "nul" [ "a\x00b" ]
        (X509.Dn.get_text dn X509.Attr.Common_name)
  | Error m -> Alcotest.fail m);
  (* Multi-valued RDN. *)
  (match X509.Dn.of_string "CN=x+O=y" with
  | Ok [ rdn ] -> check Alcotest.int "two atvs in one rdn" 2 (List.length rdn)
  | Ok _ -> Alcotest.fail "expected single RDN"
  | Error m -> Alcotest.fail m);
  (* Dotted OID labels. *)
  (match X509.Dn.of_string "2.5.4.3=dotted" with
  | Ok dn ->
      check (Alcotest.list Alcotest.string) "oid label" [ "dotted" ]
        (X509.Dn.get_text dn X509.Attr.Common_name)
  | Error m -> Alcotest.fail m);
  (* Errors. *)
  check Alcotest.bool "missing equals" true (Result.is_error (X509.Dn.of_string "CNnovalue"));
  check Alcotest.bool "unknown label" true (Result.is_error (X509.Dn.of_string "XX=1"))

let prop_dn_string_roundtrip =
  QCheck.Test.make ~name:"dn to_string/of_string roundtrip" ~count:150
    (QCheck.make ~print:(fun s -> s)
       QCheck.Gen.(
         map
           (fun cps -> Unicode.Codec.utf8_of_cps (Array.of_list cps))
           (list_size (int_range 1 16)
              (frequency
                 [ (6, int_range 0x20 0x7E); (2, int_range 0xA1 0x2FF);
                   (1, oneofl [ 0x2C (* , *); 0x2B (* + *); 0x5C; 0x23; 0x3B ]) ]))))
    (fun value ->
      let dn =
        X509.Dn.of_list
          [ (X509.Attr.Organization_name, value); (X509.Attr.Common_name, "x.example") ]
      in
      match X509.Dn.of_string (X509.Dn.to_string dn) with
      | Ok dn' -> X509.Dn.equal_normalized dn dn'
      | Error _ -> false)

let test_dn_raw_preservation () =
  (* Noncompliant declared types and bytes survive the round trip. *)
  let dn =
    X509.Dn.single
      [ X509.Dn.atv_raw ~st:Asn1.Str_type.Printable_string X509.Attr.Common_name
          "bad\x00\xFFbytes" ]
  in
  match X509.Dn.decode (X509.Dn.encode dn) with
  | Ok dn' -> (
      match X509.Dn.first dn' X509.Attr.Common_name with
      | Some { X509.Dn.value = Asn1.Value.Str (st, raw); _ } ->
          check Alcotest.bool "type kept" true (st = Asn1.Str_type.Printable_string);
          check Alcotest.string "bytes kept" "bad\x00\xFFbytes" raw
      | _ -> Alcotest.fail "missing CN")
  | Error m -> Alcotest.fail m

(* --- GeneralName ------------------------------------------------------ *)

let gn_testable =
  Alcotest.testable
    (fun ppf gn -> Format.fprintf ppf "%s:%s" (X509.General_name.kind gn) (X509.General_name.text gn))
    ( = )

let test_general_names () =
  let roundtrip gn =
    match X509.General_name.of_value (X509.General_name.to_value gn) with
    | Ok gn' -> check gn_testable "roundtrip" gn gn'
    | Error m -> Alcotest.fail m
  in
  roundtrip (X509.General_name.Dns_name "test.com");
  roundtrip (X509.General_name.Dns_name "bad name\x00with nul");
  roundtrip (X509.General_name.Rfc822_name "a@b.c");
  roundtrip (X509.General_name.Uri "https://example.com/x");
  roundtrip (X509.General_name.Ip_address "\x7F\x00\x00\x01");
  roundtrip (X509.General_name.Registered_id [ 1; 2; 3 ]);
  roundtrip (X509.General_name.Directory_name sample_dn);
  check Alcotest.string "ip text" "127.0.0.1"
    (X509.General_name.text (X509.General_name.Ip_address "\x7F\x00\x00\x01"))

(* --- extensions ------------------------------------------------------- *)

let test_extensions () =
  let san =
    X509.Extension.subject_alt_name
      [ X509.General_name.Dns_name "a.com"; X509.General_name.Dns_name "b.com" ]
  in
  (match X509.Extension.parse_general_names san.X509.Extension.value with
  | Ok [ X509.General_name.Dns_name "a.com"; X509.General_name.Dns_name "b.com" ] -> ()
  | Ok _ -> Alcotest.fail "wrong SAN parse"
  | Error m -> Alcotest.fail m);
  let crldp = X509.Extension.crl_distribution_points [ X509.General_name.Uri "http://c/r" ] in
  (match X509.Extension.parse_crl_distribution_points crldp.X509.Extension.value with
  | Ok [ X509.General_name.Uri "http://c/r" ] -> ()
  | Ok _ -> Alcotest.fail "wrong CRLDP parse"
  | Error m -> Alcotest.fail m);
  let aia =
    X509.Extension.authority_info_access
      [ (X509.Extension.Oids.ocsp, X509.General_name.Uri "http://ocsp") ]
  in
  (match X509.Extension.parse_info_access aia.X509.Extension.value with
  | Ok [ (meth, X509.General_name.Uri "http://ocsp") ] ->
      check Alcotest.bool "method" true (Asn1.Oid.equal meth X509.Extension.Oids.ocsp)
  | Ok _ -> Alcotest.fail "wrong AIA parse"
  | Error m -> Alcotest.fail m);
  let policies =
    X509.Extension.certificate_policies
      [ { X509.Extension.policy_oid = [ 2; 23; 140; 1; 2; 1 ];
          notice =
            Some
              { X509.Extension.explicit_text =
                  Some (Asn1.Value.str_raw Asn1.Str_type.Ia5_string "See CPS") } } ]
  in
  match X509.Extension.parse_certificate_policies policies.X509.Extension.value with
  | Ok [ { X509.Extension.policy_oid = [ 2; 23; 140; 1; 2; 1 ]; notice = Some n } ] -> (
      match n.X509.Extension.explicit_text with
      | Some (Asn1.Value.Str (Asn1.Str_type.Ia5_string, "See CPS")) -> ()
      | _ -> Alcotest.fail "explicitText lost")
  | Ok _ -> Alcotest.fail "wrong policies parse"
  | Error m -> Alcotest.fail m

(* --- PEM --------------------------------------------------------------- *)

let test_base64 () =
  let vectors =
    [ ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v"); ("foob", "Zm9vYg==");
      ("fooba", "Zm9vYmE="); ("foobar", "Zm9vYmFy") ]
  in
  List.iter
    (fun (plain, b64) ->
      check Alcotest.string ("encode " ^ plain) b64 (X509.Pem.base64_encode plain);
      check
        (Alcotest.result Alcotest.string Alcotest.string)
        ("decode " ^ b64) (Ok plain) (X509.Pem.base64_decode b64))
    vectors;
  check Alcotest.bool "reject junk" true
    (Result.is_error (X509.Pem.base64_decode "a$b"));
  check Alcotest.bool "reject truncated" true
    (Result.is_error (X509.Pem.base64_decode "Zg"))

let prop_base64_roundtrip =
  QCheck.Test.make ~name:"base64 roundtrip" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s -> X509.Pem.base64_decode (X509.Pem.base64_encode s) = Ok s)

let prop_pem_roundtrip =
  QCheck.Test.make ~name:"pem armor roundtrip" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_range 0 500))
    (fun der ->
      X509.Pem.decode (X509.Pem.encode ~label:"CERTIFICATE" der)
      = Ok ("CERTIFICATE", der))

(* --- certificates ------------------------------------------------------ *)

let ca = X509.Certificate.mock_keypair ~seed:"test-x509-ca" ()

let make_cert ?(extensions = []) subject =
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "Test CA") ])
      ~subject
      ~not_before:(Asn1.Time.make 2024 1 1) ~not_after:(Asn1.Time.make 2024 4 1)
      ~spki:(X509.Certificate.keypair_spki ca)
      ~sig_alg:X509.Certificate.Oids.mock_signature ~extensions ()
  in
  X509.Certificate.sign ca tbs

let test_cert_roundtrip () =
  let cert =
    make_cert
      ~extensions:
        [ X509.Extension.subject_alt_name [ X509.General_name.Dns_name "t.example" ];
          X509.Extension.basic_constraints ~ca:true ~path_len:2 ();
          X509.Extension.key_usage 0x05 ]
      (X509.Dn.of_list [ (X509.Attr.Common_name, "t.example") ])
  in
  match X509.Certificate.parse cert.X509.Certificate.der with
  | Ok c ->
      check Alcotest.bool "tbs equal" true (c.X509.Certificate.tbs = cert.X509.Certificate.tbs);
      check Alcotest.string "tbs bytes" cert.X509.Certificate.tbs_der c.X509.Certificate.tbs_der;
      check Alcotest.int "extension count" 3
        (List.length c.X509.Certificate.tbs.X509.Certificate.extensions)
  | Error m -> Alcotest.fail (Faults.Error.to_string m)

let test_cert_verify_tamper () =
  let cert = make_cert (X509.Dn.of_list [ (X509.Attr.Common_name, "victim.example" ) ]) in
  let spki = X509.Certificate.keypair_spki ca in
  check Alcotest.bool "verifies" true (X509.Certificate.verify ~issuer_spki:spki cert);
  (* Flip one TBS byte inside the DER and reparse: must fail. *)
  let der = Bytes.of_string cert.X509.Certificate.der in
  let pos = 60 in
  Bytes.set der pos (Char.chr (Char.code (Bytes.get der pos) lxor 0x01));
  (match X509.Certificate.parse (Bytes.to_string der) with
  | Ok tampered ->
      check Alcotest.bool "tampered fails" false
        (X509.Certificate.verify ~issuer_spki:spki tampered)
  | Error _ -> () (* structural damage is also acceptable *));
  let other = X509.Certificate.mock_keypair ~seed:"other" () in
  check Alcotest.bool "wrong issuer" false
    (X509.Certificate.verify ~issuer_spki:(X509.Certificate.keypair_spki other) cert)

let test_cert_rsa_chain () =
  let g = Ucrypto.Prng.create 31 in
  let root = X509.Certificate.rsa_keypair (Ucrypto.Rsa.generate ~bits:192 g) in
  let cert =
    let tbs =
      X509.Certificate.make_tbs
        ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "RSA Root") ])
        ~subject:(X509.Dn.of_list [ (X509.Attr.Common_name, "leaf.example") ])
        ~not_before:(Asn1.Time.make 2024 1 1) ~not_after:(Asn1.Time.make 2024 4 1)
        ~spki:(X509.Certificate.keypair_spki root)
        ~sig_alg:X509.Certificate.Oids.sha256_with_rsa ()
    in
    X509.Certificate.sign root tbs
  in
  check Alcotest.bool "rsa verifies" true
    (X509.Certificate.verify ~issuer_spki:(X509.Certificate.keypair_spki root) cert)

let test_cert_helpers () =
  let cert =
    make_cert
      ~extensions:
        [ X509.Extension.subject_alt_name
            [ X509.General_name.Dns_name "a.example"; X509.General_name.Rfc822_name "x@y" ] ]
      (X509.Dn.of_list [ (X509.Attr.Common_name, "a.example") ])
  in
  check (Alcotest.option Alcotest.string) "cn" (Some "a.example")
    (X509.Certificate.subject_cn cert);
  check (Alcotest.list Alcotest.string) "san dns" [ "a.example" ]
    (X509.Certificate.san_dns_names cert);
  check Alcotest.int "validity days" 91 (X509.Certificate.validity_days cert);
  check Alcotest.bool "valid inside" true
    (X509.Certificate.is_valid_at cert (Asn1.Time.make 2024 2 1));
  check Alcotest.bool "invalid after" false
    (X509.Certificate.is_valid_at cert (Asn1.Time.make 2024 5 1));
  check Alcotest.bool "not precert" false (X509.Certificate.is_precertificate cert);
  let pre =
    make_cert ~extensions:[ X509.Extension.ct_poison ]
      (X509.Dn.of_list [ (X509.Attr.Common_name, "p.example") ])
  in
  check Alcotest.bool "precert" true (X509.Certificate.is_precertificate pre)

let test_cert_time_forms () =
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "T CA") ])
      ~subject:(X509.Dn.of_list [ (X509.Attr.Common_name, "t.example") ])
      ~not_before:(Asn1.Time.make 2024 1 1)
      ~not_after:(Asn1.Time.make 2051 1 1)
      ~spki:(X509.Certificate.keypair_spki ca)
      ~sig_alg:X509.Certificate.Oids.mock_signature ()
  in
  let cert = X509.Certificate.sign ca tbs in
  match X509.Certificate.parse cert.X509.Certificate.der with
  | Ok c ->
      check Alcotest.bool "utc before 2050" true
        (snd c.X509.Certificate.tbs.X509.Certificate.not_before = X509.Certificate.Utc);
      check Alcotest.bool "generalized from 2050" true
        (snd c.X509.Certificate.tbs.X509.Certificate.not_after
        = X509.Certificate.Generalized)
  | Error m -> Alcotest.fail (Faults.Error.to_string m)

let subject_text_gen =
  QCheck.make ~print:(fun s -> s)
    QCheck.Gen.(
      map
        (fun cps -> Unicode.Codec.utf8_of_cps (Array.of_list cps))
        (list_size (int_range 1 20)
           (frequency
              [ (5, int_range 0x20 0x7E); (2, int_range 0xA1 0x2FF);
                (1, int_range 0x4E00 0x4FFF) ])))

let prop_cert_pem_roundtrip =
  QCheck.Test.make ~name:"certificate PEM roundtrip" ~count:60 subject_text_gen
    (fun org ->
      let cert = make_cert (X509.Dn.of_list [ (X509.Attr.Organization_name, org) ]) in
      match X509.Certificate.of_pem (X509.Certificate.to_pem cert) with
      | Ok c -> String.equal c.X509.Certificate.der cert.X509.Certificate.der
      | Error _ -> false)

(* Random bytes and mutated DER must never raise out of the parser. *)
let prop_parse_total =
  QCheck.Test.make ~name:"Certificate.parse is total" ~count:400
    QCheck.(string_of_size (QCheck.Gen.int_range 0 120))
    (fun bytes ->
      match X509.Certificate.parse bytes with Ok _ | Error _ -> true)

let prop_parse_mutated =
  QCheck.Test.make ~name:"parse survives bit flips" ~count:200
    QCheck.(pair (int_range 0 100000) (int_range 0 100000))
    (fun (pos_seed, bit_seed) ->
      let base =
        (make_cert (X509.Dn.of_list [ (X509.Attr.Common_name, "fuzz.example") ]))
          .X509.Certificate.der
      in
      let der = Bytes.of_string base in
      let pos = pos_seed mod Bytes.length der in
      Bytes.set der pos
        (Char.chr (Char.code (Bytes.get der pos) lxor (1 lsl (bit_seed mod 8))));
      match X509.Certificate.parse (Bytes.to_string der) with
      | Ok _ | Error _ -> true)

(* [parse] reads where the TBS ends from the length octets its one
   decode validated.  The oracle decodes the TBS a second time, as
   [parse] once did: under either config, every accepted certificate's
   [tbs_der] must be exactly that decode's span.  A rejection happens
   before the span is read, so accept/reject outcomes, error offsets
   and messages are those of the two-decode parse. *)
let tbs_span_matches der =
  List.for_all
    (fun config ->
      match X509.Certificate.parse ~config der with
      | Error _ -> true
      | Ok cert -> (
          let start =
            let l0 = Char.code der.[1] in
            if l0 < 0x80 then 2 else 2 + (l0 land 0x7F)
          in
          match Asn1.Value.decode_prefix ~config der start with
          | Ok (_, stop) ->
              String.equal cert.X509.Certificate.tbs_der
                (String.sub der start (stop - start))
          | Error _ -> false))
    [ Asn1.Value.strict; Asn1.Value.lenient ]

let test_tbs_span_oracle () =
  let generated =
    List.concat_map
      (fun seed ->
        List.init 2000 (fun i ->
            (Ctlog.Dataset.generate_at ~seed i).Ctlog.Dataset.cert.X509.Certificate.der))
      [ 1; 2 ]
  in
  let reproducers =
    Sys.readdir "fuzz_corpus" |> Array.to_list |> List.sort compare
    |> List.filter_map (fun file ->
           let pem =
             In_channel.with_open_bin (Filename.concat "fuzz_corpus" file)
               In_channel.input_all
           in
           Result.to_option (X509.Pem.decode_certificate pem))
  in
  (* Non-minimal lengths only the lenient config accepts. *)
  let rewritten =
    List.concat_map
      (fun der ->
        List.map
          (fun oid -> Test_fuzz.long_length_after ~oid der)
          [ Test_fuzz.cn_oid; Test_fuzz.san_oid ])
      (List.filteri (fun i _ -> i mod 10 = 0) generated @ reproducers)
  in
  let lenient_only =
    List.filter
      (fun der ->
        Result.is_error (X509.Certificate.parse der)
        && Result.is_ok (X509.Certificate.parse ~config:Asn1.Value.lenient der))
      rewritten
  in
  if List.length lenient_only < 100 then
    Alcotest.failf "only %d rewrites reach the lenient-only path"
      (List.length lenient_only);
  List.iteri
    (fun i der ->
      if not (tbs_span_matches der) then
        Alcotest.failf "input %d: tbs_der differs from the TBS decode's span" i)
    (generated @ reproducers @ rewritten)

let suite =
  [
    Alcotest.test_case "attribute oids" `Quick test_attr_oids;
    Alcotest.test_case "dn roundtrip" `Quick test_dn_roundtrip;
    Alcotest.test_case "dn accessors" `Quick test_dn_accessors;
    Alcotest.test_case "dn string flavors" `Quick test_dn_strings;
    Alcotest.test_case "dn normalized compare" `Quick test_dn_normalized_compare;
    Alcotest.test_case "dn of_string" `Quick test_dn_of_string;
    Alcotest.test_case "dn raw preservation" `Quick test_dn_raw_preservation;
    Alcotest.test_case "general names" `Quick test_general_names;
    Alcotest.test_case "extensions" `Quick test_extensions;
    Alcotest.test_case "base64 vectors" `Quick test_base64;
    Alcotest.test_case "cert roundtrip" `Quick test_cert_roundtrip;
    Alcotest.test_case "cert verify/tamper" `Quick test_cert_verify_tamper;
    Alcotest.test_case "cert rsa chain" `Slow test_cert_rsa_chain;
    Alcotest.test_case "cert helpers" `Quick test_cert_helpers;
    Alcotest.test_case "cert time forms" `Quick test_cert_time_forms;
    qtest prop_dn_string_roundtrip;
    qtest prop_base64_roundtrip;
    qtest prop_pem_roundtrip;
    qtest prop_cert_pem_roundtrip;
    qtest prop_parse_total;
    qtest prop_parse_mutated;
    Alcotest.test_case "tbs span oracle" `Quick test_tbs_span_oracle;
  ]
