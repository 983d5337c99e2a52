(* Tests for the lint framework: registry invariants matching the
   paper's Table 1 counts, per-flaw ground truth, effective-date
   gating, and individual lint behaviours. *)

let check = Alcotest.check

let test_registry_counts () =
  check Alcotest.int "95 lints total" 95 (List.length Lint.Registry.all);
  check Alcotest.int "50 new lints" 50
    (List.length (List.filter (fun (l : Lint.t) -> l.Lint.is_new) Lint.Registry.all));
  let expect ty all_n new_n =
    check (Alcotest.pair Alcotest.int Alcotest.int) (Lint.nc_type_name ty)
      (all_n, new_n) (Lint.Registry.counts_by_type ty)
  in
  (* The #Lints columns of Table 1. *)
  expect Lint.Invalid_character 22 10;
  expect Lint.Bad_normalization 4 3;
  expect Lint.Illegal_format 17 0;
  expect Lint.Invalid_encoding 48 37;
  expect Lint.Invalid_structure 2 0;
  expect Lint.Discouraged_field 2 0

let test_registry_lookup () =
  check Alcotest.bool "find known" true
    (Lint.Registry.find "e_rfc_dns_idn_a2u_unpermitted_unichar" <> None);
  check Alcotest.bool "find unknown" true (Lint.Registry.find "nonexistent" = None);
  (* Every Table 11 lint name exists in the registry. *)
  List.iter
    (fun name ->
      check Alcotest.bool name true (Lint.Registry.find name <> None))
    [ "w_rfc_ext_cp_explicit_text_not_utf8"; "w_cab_subject_common_name_not_in_san";
      "e_rfc_dns_idn_a2u_unpermitted_unichar";
      "e_subject_organization_not_printable_or_utf8";
      "e_subject_common_name_not_printable_or_utf8";
      "e_subject_locality_not_printable_or_utf8";
      "e_rfc_subject_dn_not_printable_characters";
      "e_subject_ou_not_printable_or_utf8";
      "e_subject_jurisdiction_locality_not_printable_or_utf8";
      "e_rfc_ext_cp_explicit_text_too_long";
      "e_subject_jurisdiction_state_not_printable_or_utf8";
      "e_rfc_ext_cp_explicit_text_ia5";
      "e_subject_jurisdiction_country_not_printable";
      "e_subject_state_not_printable_or_utf8";
      "e_rfc_subject_printable_string_badalpha";
      "w_community_subject_dn_trailing_whitespace";
      "e_subject_postal_code_not_printable_or_utf8";
      "e_subject_street_not_printable_or_utf8";
      "w_cab_subject_contain_extra_common_name";
      "e_subject_dn_serial_number_not_printable";
      "w_community_subject_dn_leading_whitespace";
      "e_rfc_subject_country_not_printable"; "e_rfc_dns_idn_malformed_unicode";
      "e_cab_dns_bad_character_in_label"; "e_ext_san_dns_contain_unpermitted_unichar" ]

(* --- per-flaw ground truth -------------------------------------------- *)

let issuer = List.hd Ctlog.Dataset.issuers

let cert_with_flaw seed flaw =
  let g = Ucrypto.Prng.create seed in
  let spec : Ctlog.Flaws.spec =
    {
      Ctlog.Flaws.subject =
        [ X509.Dn.atv X509.Attr.Country_name "DE";
          X509.Dn.atv X509.Attr.Locality_name "Berlin";
          X509.Dn.atv X509.Attr.Organization_name "Ground Truth GmbH";
          X509.Dn.atv X509.Attr.Common_name "gt.example.com" ];
      san = [ X509.General_name.Dns_name "gt.example.com" ];
      policies = [];
      crldp = [];
      not_before_form = None;
    }
  in
  Ctlog.Flaws.apply g spec flaw;
  let extensions =
    [ X509.Extension.subject_alt_name spec.Ctlog.Flaws.san ]
    @ (if spec.Ctlog.Flaws.policies = [] then []
       else [ X509.Extension.certificate_policies spec.Ctlog.Flaws.policies ])
    @
    if spec.Ctlog.Flaws.crldp = [] then []
    else [ X509.Extension.crl_distribution_points spec.Ctlog.Flaws.crldp ]
  in
  let kp = X509.Certificate.mock_keypair ~seed:"gt-ca" () in
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "GT CA") ])
      ~subject:(X509.Dn.single spec.Ctlog.Flaws.subject)
      ~not_before:(Asn1.Time.make 2025 1 1)
      ~not_after:(Asn1.Time.make 2025 4 1)
      ?not_before_form:spec.Ctlog.Flaws.not_before_form
      ~spki:(X509.Certificate.keypair_spki kp)
      ~sig_alg:X509.Certificate.Oids.mock_signature ~extensions ()
  in
  X509.Certificate.sign kp tbs

let test_flaw_ground_truth () =
  (* Every flaw must trigger each of its expected lints, from the DER
     bytes alone, for several random draws. *)
  List.iter
    (fun flaw ->
      let expected = Ctlog.Flaws.expected_lints flaw in
      List.iter
        (fun seed ->
          let cert = cert_with_flaw seed flaw in
          (* Parse back from bytes: the linter sees only the wire form. *)
          let cert =
            match X509.Certificate.parse cert.X509.Certificate.der with
            | Ok c -> c
            | Error m -> Alcotest.failf "%s: reparse failed: %s" (Ctlog.Flaws.name flaw) (Faults.Error.to_string m)
          in
          let findings =
            Lint.Registry.noncompliant ~respect_effective_dates:false
              ~issued:(Asn1.Time.make 2025 1 1) cert
          in
          let names = List.map (fun (f : Lint.finding) -> f.Lint.lint.Lint.name) findings in
          List.iter
            (fun expected_lint ->
              if not (List.mem expected_lint names) then
                Alcotest.failf "flaw %s (seed %d): expected %s, got [%s]"
                  (Ctlog.Flaws.name flaw) seed expected_lint
                  (String.concat "; " names))
            expected)
        [ 1; 2; 3 ])
    Ctlog.Flaws.all

let test_clean_cert_compliant () =
  let kp = X509.Certificate.mock_keypair ~seed:"clean-ca" () in
  let tbs =
    X509.Certificate.make_tbs ~serial:"\x05\x11"
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "Clean CA") ])
      ~subject:(X509.Dn.of_list [ (X509.Attr.Common_name, "ok.example.com") ])
      ~not_before:(Asn1.Time.make 2024 6 1) ~not_after:(Asn1.Time.make 2024 9 1)
      ~spki:(X509.Certificate.keypair_spki kp)
      ~sig_alg:X509.Certificate.Oids.mock_signature
      ~extensions:
        [ X509.Extension.subject_alt_name [ X509.General_name.Dns_name "ok.example.com" ] ]
      ()
  in
  let cert = X509.Certificate.sign kp tbs in
  let findings =
    Lint.Registry.noncompliant ~respect_effective_dates:false
      ~issued:(Asn1.Time.make 2024 6 1) cert
  in
  check (Alcotest.list Alcotest.string) "no findings" []
    (List.map (fun (f : Lint.finding) -> f.Lint.lint.Lint.name) findings)

let test_effective_dates () =
  let cert = cert_with_flaw 9 Ctlog.Flaws.Nonnfc_alabel in
  (* e_rfc_dns_idn_not_nfc became effective with RFC 8399 (2018). *)
  let dated =
    Lint.Registry.noncompliant ~issued:(Asn1.Time.make 2016 1 1) cert
  in
  check Alcotest.bool "2016 issuance: lint silent" true
    (not
       (List.exists
          (fun (f : Lint.finding) -> f.Lint.lint.Lint.name = "e_rfc_dns_idn_not_nfc")
          dated));
  let undated =
    Lint.Registry.noncompliant ~respect_effective_dates:false
      ~issued:(Asn1.Time.make 2016 1 1) cert
  in
  check Alcotest.bool "dates ignored: lint fires" true
    (List.exists
       (fun (f : Lint.finding) -> f.Lint.lint.Lint.name = "e_rfc_dns_idn_not_nfc")
       undated)

let test_include_new_ablation () =
  let cert = cert_with_flaw 4 Ctlog.Flaws.Unpermitted_alabel in
  let with_new = Lint.Registry.noncompliant ~issued:(Asn1.Time.make 2024 1 1) cert in
  let without_new =
    Lint.Registry.noncompliant ~include_new:false ~issued:(Asn1.Time.make 2024 1 1) cert
  in
  check Alcotest.bool "new lint catches" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.lint.Lint.name = "e_rfc_dns_idn_a2u_unpermitted_unichar")
       with_new);
  check Alcotest.bool "excluded without new" true
    (List.for_all (fun (f : Lint.finding) -> not f.Lint.lint.Lint.is_new) without_new)

let test_severity_mapping () =
  check Alcotest.bool "must=error" true (Lint.severity_of_level Lint.Must = Lint.Error);
  check Alcotest.bool "must-not=error" true
    (Lint.severity_of_level Lint.Must_not = Lint.Error);
  check Alcotest.bool "should=warning" true
    (Lint.severity_of_level Lint.Should = Lint.Warning);
  (* Name prefixes agree with severity, except the Table 11 lint the
     paper itself names w_ while classing its violations as errors. *)
  List.iter
    (fun (l : Lint.t) ->
      if l.Lint.name <> "w_cab_subject_common_name_not_in_san" then begin
        let prefix = l.Lint.name.[0] in
        match (prefix, Lint.severity l) with
        | 'e', Lint.Error | 'w', Lint.Warning -> ()
        | _ -> Alcotest.failf "lint %s prefix/severity mismatch" l.Lint.name
      end)
    Lint.Registry.all

let test_explicit_text_lints () =
  let cert = cert_with_flaw 8 Ctlog.Flaws.Explicit_text_ia5 in
  let names =
    Lint.Registry.noncompliant ~issued:(Asn1.Time.make 2024 1 1) cert
    |> List.map (fun (f : Lint.finding) -> f.Lint.lint.Lint.name)
  in
  check Alcotest.bool "ia5 error" true (List.mem "e_rfc_ext_cp_explicit_text_ia5" names);
  check Alcotest.bool "not-utf8 warning" true
    (List.mem "w_rfc_ext_cp_explicit_text_not_utf8" names)

let test_ctx_helpers () =
  let cert = cert_with_flaw 2 Ctlog.Flaws.Unicode_dnsname in
  let ctx = Lint.Ctx.of_cert cert in
  check Alcotest.bool "san parsed" true
    (match ctx.Lint.Ctx.san with Some (Ok _) -> true | _ -> false);
  check Alcotest.bool "dns names include san" true (Lint.Ctx.dns_names ctx <> [])

(* Telemetry must track behavior exactly: after a linter run, the
   per-lint invocation counter deltas equal the number of lints whose
   check actually executed (everything not NA-gated), and the NA
   counters the gated remainder.  Counters are process-cumulative, so
   compare before/after snapshots. *)
let test_obs_instrumentation () =
  let cert = cert_with_flaw 21 Ctlog.Flaws.Cn_not_in_san in
  let issued = Asn1.Time.make 2016 6 1 in
  let snapshot () =
    Lint.Registry.obs_snapshot ()
    |> List.map (fun (o : Lint.Registry.lint_obs) ->
           (o.Lint.Registry.lint_name, o))
  in
  let before = snapshot () in
  let findings = Lint.Registry.run ~issued cert in
  let after = snapshot () in
  let delta field =
    List.fold_left2
      (fun acc (na, a) (nb, b) ->
        assert (na = nb);
        acc +. (field a -. field b))
      0.0 after before
  in
  (* A check may itself return Na (field absent), which still counts as
     an invocation — so the executed/gated split comes from the
     effective-date gate, not from finding statuses. *)
  let gated =
    List.length
      (List.filter
         (fun (l : Lint.t) -> Asn1.Time.(issued < l.Lint.effective_date))
         Lint.Registry.all)
  in
  let executed = List.length Lint.Registry.all - gated in
  check Alcotest.int "one finding per registered lint" 95 (List.length findings);
  check (Alcotest.float 0.0) "invocation deltas = applicable lints"
    (float_of_int executed)
    (delta (fun o -> o.Lint.Registry.invoked));
  check (Alcotest.float 0.0) "na deltas = date-gated lints"
    (float_of_int gated)
    (delta (fun o -> o.Lint.Registry.skipped_na));
  (* Per lint the delta is exactly one invocation or one NA, never both. *)
  List.iter2
    (fun (name, a) (_, b) ->
      let di = a.Lint.Registry.invoked -. b.Lint.Registry.invoked
      and dn = a.Lint.Registry.skipped_na -. b.Lint.Registry.skipped_na in
      if not ((di = 1.0 && dn = 0.0) || (di = 0.0 && dn = 1.0)) then
        Alcotest.failf "lint %s: invocation delta %g, na delta %g" name di dn)
    after before;
  (* Fail/warn hit counters track the findings of this run. *)
  let nc = List.filter Lint.is_noncompliant findings in
  check (Alcotest.float 0.0) "fail+warn deltas = noncompliant findings"
    (float_of_int (List.length nc))
    (delta (fun o -> o.Lint.Registry.failed +. o.Lint.Registry.warned))

(* --- pinned outputs ----------------------------------------------------- *)

(* Every lint verdict with its detail strings, plus the IDNA facts the
   lints read, over seeds 1 and 2 (indices 0..1999) and every fuzz
   corpus reproducer that parses.  [@lint-golden] pins only lint names
   and counts; this digest pins the detail strings too, so a rewrite of
   a lint body, the runner or the IDNA checks that changes one byte of
   a verdict fails here.  A deliberate lint change updates the digest
   (the failure message prints the new value). *)
let golden_corpus () =
  let generated =
    List.concat_map
      (fun seed ->
        List.init 2000 (fun i ->
            let e = Ctlog.Dataset.generate_at ~seed i in
            (e.Ctlog.Dataset.cert, e.Ctlog.Dataset.issued)))
      [ 1; 2 ]
  in
  let reproducers =
    Sys.readdir "fuzz_corpus" |> Array.to_list |> List.sort compare
    |> List.filter_map (fun file ->
           let ic = open_in_bin (Filename.concat "fuzz_corpus" file) in
           let pem = really_input_string ic (in_channel_length ic) in
           close_in ic;
           match X509.Certificate.of_pem pem with
           | Ok cert ->
               Some (cert, fst cert.X509.Certificate.tbs.X509.Certificate.not_before)
           | Error _ -> None)
  in
  generated @ reproducers

let verdict_digest corpus =
  let buf = Buffer.create (1 lsl 22) in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let details = String.concat "\x1f" in
  let issues pp l = String.concat ";" (List.map (Format.asprintf "%a" pp) l) in
  List.iteri
    (fun i (cert, issued) ->
      line "cert %d" i;
      List.iter
        (fun (f : Lint.finding) ->
          let name = f.Lint.lint.Lint.name in
          match f.Lint.status with
          | Lint.Na -> line "%s NA" name
          | Lint.Pass -> line "%s P" name
          | Lint.Warn d -> line "%s W %s" name (details d)
          | Lint.Fail d -> line "%s F %s" name (details d))
        (Lint.Registry.run ~respect_effective_dates:false ~issued cert);
      List.iter
        (fun name ->
          line "dns %s %s" name (issues Idna.Dns.pp_issue (Idna.Dns.check name));
          List.iter
            (fun label ->
              line "label %s %s" label
                (issues Idna.pp_issue (Idna.alabel_issues label)))
            (Idna.Dns.split_labels name))
        (Lint.Ctx.dns_names (Lint.Ctx.of_cert cert)))
    corpus;
  Ucrypto.Sha256.hex (Buffer.contents buf)

let test_verdict_golden () =
  let corpus = golden_corpus () in
  check Alcotest.int "corpus size" 4004 (List.length corpus);
  check Alcotest.string "verdict digest"
    "4e4a4d4cc5c3e57c77b378cd3efb52d0170a59460c208fe2671c1c74e575a8b8"
    (verdict_digest corpus)

(* Lint telemetry over a whole pipeline run, pinned at the values the
   list-building runner recorded: the runner may change how it counts,
   never what.  [est_seconds] is a sampled estimate, so only its
   presence is checked: every lint that ran has been timed at least
   once (the counters are process-cumulative, and by now every lint has
   run thousands of times). *)
let pipeline_lint_deltas ~jobs =
  let counts () =
    List.map
      (fun (o : Lint.Registry.lint_obs) ->
        [ o.Lint.Registry.invoked; o.Lint.Registry.failed;
          o.Lint.Registry.warned; o.Lint.Registry.skipped_na ])
      (Lint.Registry.obs_snapshot ())
  in
  let before = counts () in
  ignore (Sys.opaque_identity (Unicert.Pipeline.run ~scale:300 ~seed:1 ~jobs ()));
  let deltas =
    List.map2 (List.map2 (fun a b -> int_of_float (b -. a))) before (counts ())
  in
  ( List.fold_left (List.map2 ( + )) [ 0; 0; 0; 0 ] deltas,
    Ucrypto.Sha256.hex
      (String.concat "\n"
         (List.map2
            (fun (l : Lint.t) d ->
              l.Lint.name ^ "=" ^ String.concat "," (List.map string_of_int d))
            Lint.Registry.all deltas)) )

let test_pipeline_telemetry_pinned () =
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "jobs=%d " jobs in
      let totals, per_lint = pipeline_lint_deltas ~jobs in
      check
        Alcotest.(list int)
        (label ^ "invoked, failed, warned, na") [ 28500; 17; 4; 0 ] totals;
      check Alcotest.string (label ^ "per-lint deltas") "2108393c5d00e08d2fcd6891735a8ceabdfecb060cf3c43a46e5280ac86c0b82" per_lint)
    [ 1; 2 ];
  List.iter
    (fun (o : Lint.Registry.lint_obs) ->
      if o.Lint.Registry.invoked > 0. && not (o.Lint.Registry.est_seconds > 0.) then
        Alcotest.failf "lint %s ran %g times but has no time estimate"
          o.Lint.Registry.lint_name o.Lint.Registry.invoked)
    (Lint.Registry.obs_snapshot ())

(* [unicert_lint --json] names each file in a JSON string: a path with
   a quote, a backslash and a newline must come back from the parse
   unchanged, on the findings line and on the error line alike. *)
let test_json_file_paths () =
  let dir = Filename.temp_dir "unicert-lint-json" "" in
  let good = Filename.concat dir "a\"b\\c\nd.pem" in
  let bad = Filename.concat dir "bad\"\\\nname.pem" in
  Out_channel.with_open_bin good (fun oc ->
      output_string oc
        (X509.Certificate.to_pem (cert_with_flaw 9 Ctlog.Flaws.Nonnfc_alabel)));
  Out_channel.with_open_bin bad (fun oc -> output_string oc "not a certificate");
  let out = Filename.concat dir "out.jsonl" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/unicert_lint.exe --json %s %s > %s"
         (Filename.quote good) (Filename.quote bad) (Filename.quote out))
  in
  check Alcotest.int "exit code" 0 code;
  let lines =
    In_channel.with_open_bin out In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let field key line =
    match Obs.Jsonv.parse line with
    | Ok v -> Obs.Jsonv.member key v
    | Error m -> Alcotest.failf "invalid JSON (%s): %s" m line
  in
  (match lines with
  | [ l1; l2 ] ->
      check Alcotest.bool "findings line names the path" true
        (field "file" l1 = Some (Obs.Jsonv.Str good));
      check Alcotest.bool "findings line has findings" true
        (field "findings" l1 <> None);
      check Alcotest.bool "error line names the path" true
        (field "file" l2 = Some (Obs.Jsonv.Str bad));
      check Alcotest.bool "error line has the error" true (field "error" l2 <> None)
  | _ -> Alcotest.failf "expected two lines, got %d" (List.length lines));
  List.iter Sys.remove [ good; bad; out ];
  Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "registry counts match Table 1" `Quick test_registry_counts;
    Alcotest.test_case "telemetry tracks execution" `Quick test_obs_instrumentation;
    Alcotest.test_case "registry lookups" `Quick test_registry_lookup;
    Alcotest.test_case "per-flaw ground truth" `Slow test_flaw_ground_truth;
    Alcotest.test_case "clean cert is compliant" `Quick test_clean_cert_compliant;
    Alcotest.test_case "effective date gating" `Quick test_effective_dates;
    Alcotest.test_case "new-lint ablation" `Quick test_include_new_ablation;
    Alcotest.test_case "severity mapping" `Quick test_severity_mapping;
    Alcotest.test_case "explicit text lints" `Quick test_explicit_text_lints;
    Alcotest.test_case "ctx helpers" `Quick test_ctx_helpers;
    Alcotest.test_case "verdicts and IDNA facts match the golden digest" `Quick
      test_verdict_golden;
    Alcotest.test_case "pipeline lint telemetry is pinned" `Quick
      test_pipeline_telemetry_pinned;
    Alcotest.test_case "--json names any file path" `Quick test_json_file_paths;
  ]
