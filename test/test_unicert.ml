(* Tests for the unicert core: classification, browser models, and the
   full pipeline. *)

let check = Alcotest.check

let ca = X509.Certificate.mock_keypair ~seed:"unicert-test-ca" ()

let cert ?(org = None) ?(cn = "plain.example.com") sans =
  let subject =
    (match org with Some o -> [ X509.Dn.atv X509.Attr.Organization_name o ] | None -> [])
    @ [ X509.Dn.atv X509.Attr.Common_name cn ]
  in
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "UC CA") ])
      ~subject:(X509.Dn.single subject)
      ~not_before:(Asn1.Time.make 2025 1 1) ~not_after:(Asn1.Time.make 2025 4 1)
      ~spki:(X509.Certificate.keypair_spki ca)
      ~sig_alg:X509.Certificate.Oids.mock_signature
      ~extensions:
        [ X509.Extension.subject_alt_name
            (List.map (fun d -> X509.General_name.Dns_name d) sans) ]
      ()
  in
  X509.Certificate.sign ca tbs

let test_classify () =
  let plain = cert [ "plain.example.com" ] in
  check Alcotest.bool "plain not unicert" false (Unicert.Classify.is_unicert plain);
  let idn = cert ~cn:"xn--bcher-kva.de" [ "xn--bcher-kva.de" ] in
  check Alcotest.bool "alabel is unicert" true (Unicert.Classify.is_unicert idn);
  let multilingual = cert ~org:(Some "St\xC3\xB6ri AG") [ "plain.example.com" ] in
  check Alcotest.bool "unicode org is unicert" true
    (Unicert.Classify.is_unicert multilingual);
  let ctrl = cert ~org:(Some "Evil\x01Org") [ "plain.example.com" ] in
  check Alcotest.bool "control char is unicert" true (Unicert.Classify.is_unicert ctrl)

let test_unicode_fields () =
  let c = cert ~org:(Some "St\xC3\xB6ri AG") [ "xn--bcher-kva.de" ] in
  let fields = Unicert.Classify.unicode_fields c in
  check Alcotest.bool "org flagged" true
    (List.assoc "subject.organizationName" fields);
  check Alcotest.bool "san idn flagged" true (List.assoc "san.dNSName" fields);
  check Alcotest.bool "country not flagged" false
    (List.mem_assoc "subject.countryName" fields
    && List.assoc "subject.countryName" fields)

(* --- browsers ------------------------------------------------------------ *)

let test_browser_rendering () =
  let open Unicert.Browsers in
  (* C0 policies *)
  check Alcotest.string "firefox raw" "A\x01B" (render_field firefox "A\x01B");
  check Alcotest.string "chromium url-encodes" "A%01B" (render_field chromium "A\x01B");
  check Alcotest.string "safari control picture" "A\xE2\x90\x81B"
    (render_field safari "A\x01B");
  (* Layout controls vanish everywhere. *)
  List.iter
    (fun b ->
      check Alcotest.string (b.name ^ " hides zwsp") "shop"
        (render_field b "sh\xE2\x80\x8Bop"))
    all

let test_browser_bidi_spoof () =
  let open Unicert.Browsers in
  let crafted = "www.\xE2\x80\xAElapyap\xE2\x80\xAC.com" in
  List.iter
    (fun b ->
      check Alcotest.string (b.name ^ " renders RLO visually") "www.paypal.com"
        (render_field b crafted))
    all;
  let spoofs = warning_spoof_demo () in
  let spoofed name = (List.find (fun (s : spoof) -> s.browser = name) spoofs).spoofed in
  check Alcotest.bool "firefox warning spoofable" true (spoofed "Firefox");
  check Alcotest.bool "chromium warning spoofable" true (spoofed "Chromium-based");
  check Alcotest.bool "safari warning not spoofable" false (spoofed "Safari")

let test_table14 () =
  let open Unicert.Browsers in
  let rows = table14 () in
  let row name = List.find (fun (r : row) -> r.browser = name) rows in
  check Alcotest.bool "firefox c0 invisible" false (row "Firefox").c0_c1_visible;
  check Alcotest.bool "safari c0 visible" true (row "Safari").c0_c1_visible;
  check Alcotest.bool "chromium c0 visible" true (row "Chromium-based").c0_c1_visible;
  List.iter
    (fun (r : row) ->
      check Alcotest.bool (r.browser ^ " layout invisible") false r.layout_visible;
      check Alcotest.bool (r.browser ^ " homograph feasible") true r.homograph_feasible)
    rows;
  check Alcotest.bool "chromium range check" false (row "Chromium-based").flawed_range_check;
  check Alcotest.bool "firefox lacks range check" true (row "Firefox").flawed_range_check

(* --- pipeline -------------------------------------------------------------- *)

let test_pipeline_invariants () =
  let t = Unicert.Pipeline.run ~scale:3000 ~seed:2 () in
  check Alcotest.int "total" 3000 t.Unicert.Pipeline.total;
  check Alcotest.bool "nc subset" true (t.Unicert.Pipeline.nc_total <= t.Unicert.Pipeline.total);
  check Alcotest.int "trust split sums" t.Unicert.Pipeline.nc_total
    (t.Unicert.Pipeline.nc_trusted + t.Unicert.Pipeline.nc_limited
    + t.Unicert.Pipeline.nc_untrusted);
  check Alcotest.bool "undated >= dated" true
    (t.Unicert.Pipeline.nc_ignoring_dates >= t.Unicert.Pipeline.nc_total);
  check Alcotest.bool "old-lints-only <= dated" true
    (t.Unicert.Pipeline.nc_old_lints_only <= t.Unicert.Pipeline.nc_total);
  (* year histogram sums to total *)
  let year_sum =
    Hashtbl.fold (fun _ (s : Unicert.Pipeline.year_stats) acc -> acc + s.Unicert.Pipeline.issued)
      t.Unicert.Pipeline.years 0
  in
  check Alcotest.int "years sum" 3000 year_sum;
  (* issuer totals sum to total *)
  let issuer_sum =
    Hashtbl.fold (fun _ (s : Unicert.Pipeline.issuer_stats) acc -> acc + s.Unicert.Pipeline.total)
      t.Unicert.Pipeline.issuers 0
  in
  check Alcotest.int "issuers sum" 3000 issuer_sum;
  (* per-lint histogram covers at least the nc certs *)
  let lint_total = List.fold_left (fun a (_, n) -> a + n) 0 (Unicert.Pipeline.top_lints t) in
  check Alcotest.bool "lint hits >= nc certs" true (lint_total >= t.Unicert.Pipeline.nc_total)

let test_pipeline_cdf () =
  let t = Unicert.Pipeline.run ~scale:2000 ~seed:3 () in
  List.iter
    (fun cls ->
      let points = Unicert.Pipeline.validity_cdf t cls in
      match (points, List.rev points) with
      | (_, f0) :: _, (_, fn) :: _ ->
          check Alcotest.bool "cdf starts > 0" true (f0 > 0.0);
          check (Alcotest.float 1e-9) "cdf ends at 1" 1.0 fn;
          (* monotone *)
          ignore
            (List.fold_left
               (fun prev (d, f) ->
                 if f < prev then Alcotest.failf "cdf not monotone at %d" d;
                 f)
               0.0 points)
      | [], _ | _, [] -> Alcotest.fail "empty cdf")
    [ Unicert.Pipeline.V_idn; Unicert.Pipeline.V_normal ]

let test_report_rendering () =
  (* Every report renders without raising on a small pipeline. *)
  let t = Unicert.Pipeline.run ~scale:600 ~seed:9 () in
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  Unicert.Report.all ppf t;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  List.iter
    (fun needle ->
      let contains =
        let hn = String.length out and nn = String.length needle in
        let rec go i = i + nn <= hn && (String.sub out i nn = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool ("report mentions " ^ needle) true contains)
    [ "Figure 2"; "Table 1"; "Table 2"; "Figure 3"; "Figure 4"; "Table 11";
      "Ablations"; "encoding-error certs" ]

let test_pipeline_determinism () =
  let a = Unicert.Pipeline.run ~scale:800 ~seed:4 () in
  let b = Unicert.Pipeline.run ~scale:800 ~seed:4 () in
  check Alcotest.int "same nc" a.Unicert.Pipeline.nc_total b.Unicert.Pipeline.nc_total;
  check Alcotest.int "same idn" a.Unicert.Pipeline.idncerts b.Unicert.Pipeline.idncerts

let suite =
  [
    Alcotest.test_case "unicert classification" `Quick test_classify;
    Alcotest.test_case "unicode fields" `Quick test_unicode_fields;
    Alcotest.test_case "browser rendering" `Quick test_browser_rendering;
    Alcotest.test_case "browser bidi spoof (fig 7)" `Quick test_browser_bidi_spoof;
    Alcotest.test_case "table 14" `Quick test_table14;
    Alcotest.test_case "pipeline invariants" `Slow test_pipeline_invariants;
    Alcotest.test_case "pipeline cdf" `Slow test_pipeline_cdf;
    Alcotest.test_case "report rendering" `Slow test_report_rendering;
    Alcotest.test_case "pipeline determinism" `Slow test_pipeline_determinism;
  ]
