(* Tests for the CT monitor simulators and the Table 6 audit. *)

let check = Alcotest.check

module M = Monitors.Monitor

let ca = X509.Certificate.mock_keypair ~seed:"monitors-test-ca" ()

let cert ?(cn = None) domains =
  let cn_value = match cn with Some c -> c | None -> List.hd domains in
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "Monitor Test CA") ])
      ~subject:(X509.Dn.of_list [ (X509.Attr.Common_name, cn_value) ])
      ~not_before:(Asn1.Time.make 2025 1 1) ~not_after:(Asn1.Time.make 2025 4 1)
      ~spki:(X509.Certificate.keypair_spki ca)
      ~sig_alg:X509.Certificate.Oids.mock_signature
      ~extensions:
        [ X509.Extension.subject_alt_name
            (List.map (fun d -> X509.General_name.Dns_name d) domains) ]
      ()
  in
  X509.Certificate.sign ca tbs

let results = function M.Results certs -> certs | M.Refused r -> Alcotest.failf "refused: %s" r

let test_exact_and_case () =
  let m = M.create M.facebook in
  let c = cert [ "shop.example.com" ] in
  M.ingest m c;
  check Alcotest.int "exact match" 1 (List.length (results (M.search m "shop.example.com")));
  check Alcotest.int "case folded" 1
    (List.length (results (M.search m "SHOP.Example.COM")));
  check Alcotest.int "substring misses (no fuzzy)" 0
    (List.length (results (M.search m "example.com")))

let test_fuzzy () =
  let m = M.create M.crtsh in
  M.ingest m (cert [ "a.victim.org" ]);
  M.ingest m (cert [ "b.victim.org" ]);
  M.ingest m (cert [ "other.net" ]);
  check Alcotest.int "substring finds both" 2
    (List.length (results (M.search m "victim.org")))

let test_subject_attr_indexing () =
  let crtsh = M.create M.crtsh in
  let fb = M.create M.facebook in
  let c = cert ~cn:(Some "site.example.com") [ "site.example.com" ] in
  (* crt.sh indexes O as well; build a cert with an org. *)
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "Monitor Test CA") ])
      ~subject:
        (X509.Dn.of_list
           [ (X509.Attr.Organization_name, "Searchable Org");
             (X509.Attr.Common_name, "org.example.com") ])
      ~not_before:(Asn1.Time.make 2025 1 1) ~not_after:(Asn1.Time.make 2025 4 1)
      ~spki:(X509.Certificate.keypair_spki ca)
      ~sig_alg:X509.Certificate.Oids.mock_signature
      ~extensions:
        [ X509.Extension.subject_alt_name [ X509.General_name.Dns_name "org.example.com" ] ]
      ()
  in
  let org_cert = X509.Certificate.sign ca tbs in
  M.ingest crtsh c;
  M.ingest crtsh org_cert;
  M.ingest fb org_cert;
  check Alcotest.int "crtsh finds by org" 1
    (List.length (results (M.search crtsh "searchable org")));
  check Alcotest.int "facebook does not index org" 0
    (List.length (results (M.search fb "searchable org")))

let test_ulabel_checks () =
  let sslmate = M.create M.sslmate in
  let crtsh = M.create M.crtsh in
  (match M.search sslmate "xn--www-hn0a.example.com" with
  | M.Refused _ -> ()
  | M.Results _ -> Alcotest.fail "sslmate should refuse deceptive A-label");
  match M.search crtsh "xn--www-hn0a.example.com" with
  | M.Refused r -> Alcotest.failf "crtsh should accept: %s" r
  | M.Results _ -> ()

let test_cctld_refusal () =
  let entrust = M.create M.entrust in
  match M.search entrust "shop.xn--p1ai" with
  | M.Refused _ -> ()
  | M.Results _ -> Alcotest.fail "entrust should refuse punycode ccTLD queries"

let test_alabel_refusal_per_profile () =
  (* The "Punycode IDN ccTLD" column of Table 6 is only about IDN
     *country-code* TLDs.  An A-label query under an ASCII TLD or an
     IDN gTLD must never be refused on that ground — on every profile
     it is an ordinary search that may simply come back empty.
     Conflating the refusal with "not found" misreports coverage. *)
  List.iter
    (fun (prof : M.profile) ->
      let m = M.create prof in
      M.ingest m (cert [ "unrelated.example" ]);
      List.iter
        (fun q ->
          match M.search m q with
          | M.Results hits ->
              check Alcotest.int
                (Printf.sprintf "%s %S finds nothing" prof.M.name q)
                0 (List.length hits)
          | M.Refused reason ->
              Alcotest.failf "%s refused %S: %s" prof.M.name q reason)
        [ "xn--bcher-kva.com"; "shop.xn--q9jyb4c" ];
      (* ...while the ccIDN case keeps its per-profile verdict. *)
      match (M.search m "shop.xn--p1ai", prof.M.punycode_ccidn) with
      | M.Refused _, false | M.Results _, true -> ()
      | M.Results _, false ->
          Alcotest.failf "%s should refuse punycode ccIDN queries" prof.M.name
      | M.Refused reason, true ->
          Alcotest.failf "%s should serve punycode ccIDN queries, refused: %s"
            prof.M.name reason)
    M.all

let test_sslmate_cn_quirks () =
  let m = M.create M.sslmate in
  M.ingest m (cert ~cn:(Some "victim.com/extra") [ "unrelated.example" ]);
  (* Only the substring before '/' is indexed (P1.4). *)
  check Alcotest.int "matches pre-slash part" 1
    (List.length (results (M.search m "victim.com")));
  M.ingest m (cert ~cn:(Some "has space.com") [ "other.example" ]);
  check Alcotest.int "space CN ignored" 0
    (List.length (results (M.search m "has space.com")))

let test_log_ingestion () =
  let log = Ctlog.Log.create ~name:"ingest-test" in
  let c1 = cert [ "one.example" ] and c2 = cert [ "two.example" ] in
  ignore (Ctlog.Log.add_chain log c1.X509.Certificate.der);
  ignore (Ctlog.Log.add_chain log c2.X509.Certificate.der);
  let m = M.create M.crtsh in
  M.ingest_log m log;
  check Alcotest.int "both indexed" 1 (List.length (results (M.search m "one.example")))

let test_table6_matches_paper () =
  let open Monitors.Audit in
  let rows = table6 () in
  let row name = List.find (fun (r : row) -> r.monitor = name) rows in
  (* All monitors are case-insensitive and reject Unicode input. *)
  List.iter
    (fun (r : row) ->
      check Alcotest.bool (r.monitor ^ " case-insensitive") true (r.case_sensitive = No);
      check Alcotest.bool (r.monitor ^ " no unicode") true (r.unicode_search = No);
      check Alcotest.bool (r.monitor ^ " punycode") true (r.punycode_idn = Yes))
    rows;
  check Alcotest.bool "crtsh fuzzy" true ((row "Crt.sh").fuzzy_search = Yes);
  check Alcotest.bool "sslmate no fuzzy" true ((row "SSLMate Spotter").fuzzy_search = No);
  check Alcotest.bool "sslmate checks ulabels" true ((row "SSLMate Spotter").ulabel_check = Yes);
  check Alcotest.bool "facebook checks ulabels" true
    ((row "Facebook Monitor").ulabel_check = Yes);
  check Alcotest.bool "entrust no cctld" true
    ((row "Entrust Search").punycode_idn_cctld = No);
  check Alcotest.bool "sslmate drops special" true
    ((row "SSLMate Spotter").fails_special_unicode = Yes);
  check Alcotest.bool "crtsh keeps special" true
    ((row "Crt.sh").fails_special_unicode = No)

let test_concealment () =
  let cs = Monitors.Audit.concealment_demo () in
  check Alcotest.bool "some forgeries concealed" true
    (List.exists (fun (c : Monitors.Audit.concealment) -> c.Monitors.Audit.concealed) cs);
  (* Fuzzy monitors still catch the slash variant. *)
  check Alcotest.bool "crtsh sees slash variant" true
    (List.exists
       (fun (c : Monitors.Audit.concealment) ->
         c.Monitors.Audit.monitor = "Crt.sh"
         && c.Monitors.Audit.forged_cn = "victim-bank.com/path"
         && not c.Monitors.Audit.concealed)
       cs)

let test_corpus_recall () =
  let rows = Monitors.Audit.corpus_recall ~scale:3000 ~seed:5 () in
  let get name = List.find (fun (r : Monitors.Audit.recall) -> r.Monitors.Audit.monitor = name) rows in
  List.iter
    (fun (r : Monitors.Audit.recall) ->
      check Alcotest.bool (r.Monitors.Audit.monitor ^ " sampled > 0") true
        (r.Monitors.Audit.sampled > 0);
      check Alcotest.bool "found <= sampled" true
        (r.Monitors.Audit.found <= r.Monitors.Audit.sampled))
    rows;
  (* The index-dropping, exact-match monitor recalls no more than the
     fuzzy ones. *)
  check Alcotest.bool "sslmate recall <= crtsh recall" true
    ((get "SSLMate Spotter").Monitors.Audit.found <= (get "Crt.sh").Monitors.Audit.found)

let test_corpus_recall_corrupted () =
  (* Recall over a corrupted corpus: mutated blobs never parse, so they
     are excluded and every number is computed over the survivors only
     — identical whether the faulty indices deliver corrupted bytes or
     nothing at all (--drop-faulty semantics). *)
  let scale = 3000 and seed = 5 in
  let clean = Monitors.Audit.corpus_recall ~scale ~seed () in
  let m = Faults.Mutator.plan ~seed:17 ~rate:0.2 () in
  let corrupted = Monitors.Audit.corpus_recall ~scale ~seed ~mutator:m () in
  let dropped =
    Monitors.Audit.corpus_recall ~scale ~seed ~mutator:m ~drop:true ()
  in
  check Alcotest.bool "corrupt == drop" true (corrupted = dropped);
  List.iter2
    (fun (c : Monitors.Audit.recall) (r : Monitors.Audit.recall) ->
      check Alcotest.string "same monitor order" c.Monitors.Audit.monitor
        r.Monitors.Audit.monitor;
      check Alcotest.bool
        (r.Monitors.Audit.monitor ^ " survivors are a strict subset") true
        (r.Monitors.Audit.sampled > 0
        && r.Monitors.Audit.sampled < c.Monitors.Audit.sampled);
      check Alcotest.bool "found <= sampled" true
        (r.Monitors.Audit.found <= r.Monitors.Audit.sampled))
    clean corrupted

(* Serving answers must not depend on how ingest was batched: a
   service fed in many small commits answers the query battery
   byte-identically to one fed in a single commit. *)
let service_battery =
  [
    "q crtsh example";
    "q sslmate xn--bcher-kva.com";
    "q entrust xn--bcher-kva.com";
    "q entrust shop.xn--p1ai";
    "ix issuer COMODO CA Limited";
    "ix ulabel b\xc3\xbccher";
    "ix domain example";
    "ix flaw Invalid Encoding";
    "stats";
  ]

let test_service_commit_batching () =
  let module P = Unicert.Pipeline in
  let module S = Monitors.Service in
  let scale = 300 in
  let rows =
    List.mapi
      (fun index entry -> P.analyze_entry entry ~index)
      (Ctlog.Dataset.generate ~scale ~seed:5 ())
  in
  let stage service row =
    let id = P.row_index row in
    S.stage_fields service ~id ~cns:(P.row_cns row)
      ~sans:(P.row_domains row) ~attrs:(P.row_attrs row);
    P.add_index_entries (P.fresh_acc ()) row ~on_entry:(fun ~index ~key ->
        S.stage_index service ~index ~key ~id)
  in
  let once = S.create () in
  List.iter (stage once) rows;
  S.commit once ~upto:scale;
  let batched = S.create () in
  List.iteri
    (fun i row ->
      stage batched row;
      if (i + 1) mod 7 = 0 then S.commit batched ~upto:(i + 1))
    rows;
  S.commit batched ~upto:scale;
  check Alcotest.bool "the battery finds hits" true
    (String.starts_with ~prefix:"hits " (List.hd (S.respond once "q crtsh example"))
    && List.hd (S.respond once "q crtsh example") <> "hits 0");
  List.iter
    (fun line ->
      check Alcotest.(list string) line (S.respond once line) (S.respond batched line))
    service_battery

let suite =
  [
    Alcotest.test_case "exact and case handling" `Quick test_exact_and_case;
    Alcotest.test_case "fuzzy search" `Quick test_fuzzy;
    Alcotest.test_case "subject attr indexing" `Quick test_subject_attr_indexing;
    Alcotest.test_case "u-label checks" `Quick test_ulabel_checks;
    Alcotest.test_case "punycode ccTLD refusal" `Quick test_cctld_refusal;
    Alcotest.test_case "A-label refusal scoped to ccIDN TLDs, per profile"
      `Quick test_alabel_refusal_per_profile;
    Alcotest.test_case "sslmate CN quirks" `Quick test_sslmate_cn_quirks;
    Alcotest.test_case "ct log ingestion" `Quick test_log_ingestion;
    Alcotest.test_case "table 6 matches paper" `Quick test_table6_matches_paper;
    Alcotest.test_case "concealment demo" `Quick test_concealment;
    Alcotest.test_case "service answers independent of commit batching" `Quick
      test_service_commit_batching;
    Alcotest.test_case "corpus recall (F.2)" `Slow test_corpus_recall;
    Alcotest.test_case "corpus recall over corrupted corpus" `Slow
      test_corpus_recall_corrupted;
  ]
