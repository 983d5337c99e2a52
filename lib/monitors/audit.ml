type capability = Yes | No

let capability_symbol = function Yes -> "yes" | No -> "no"

type row = {
  monitor : string;
  case_sensitive : capability;
  unicode_search : capability;
  fuzzy_search : capability;
  ulabel_check : capability;
  punycode_idn : capability;
  punycode_idn_cctld : capability;
  fails_special_unicode : capability;
}

let issuer_key = X509.Certificate.mock_keypair ~seed:"audit-ca" ()

let cert_for ?(cn = None) domains =
  let cn_value =
    match (cn, domains) with
    | Some c, _ -> c
    | None, d :: _ -> d
    | None, [] -> invalid_arg "Audit.cert_for: no CN and no domains"
  in
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "Audit CA") ])
      ~subject:(X509.Dn.of_list [ (X509.Attr.Common_name, cn_value) ])
      ~not_before:(Asn1.Time.make 2025 1 1) ~not_after:(Asn1.Time.make 2025 4 1)
      ~spki:(X509.Certificate.keypair_spki issuer_key)
      ~sig_alg:X509.Certificate.Oids.mock_signature
      ~extensions:
        [ X509.Extension.subject_alt_name
            (List.map (fun d -> X509.General_name.Dns_name d) domains) ]
      ()
  in
  X509.Certificate.sign issuer_key tbs

let found result target =
  match result with
  | Monitor.Refused _ -> false
  | Monitor.Results certs ->
      List.exists
        (fun c -> List.mem target (X509.Certificate.san_dns_names c))
        certs

let probe prof =
  let m = Monitor.create prof in
  (* Seed the index. *)
  let case_cert = cert_for [ "case.example.com" ] in
  let fuzzy_cert = cert_for [ "fuzzy-target.example.com" ] in
  let idn_cert = cert_for [ "xn--bcher-kva.example.com" ] in
  let cctld_cert = cert_for [ "xn--bcher-kva.xn--p1ai" ] in
  let special_cert = cert_for [ "special\x01.victim-corp.com" ] in
  List.iter (Monitor.ingest m)
    [ case_cert; fuzzy_cert; idn_cert; cctld_cert; special_cert ];
  let case_sensitive =
    if found (Monitor.search m "CASE.EXAMPLE.COM") "case.example.com" then No else Yes
  in
  let unicode_search =
    match Monitor.search m "b\xC3\xBCcher.example.com" with
    | Monitor.Refused _ -> No
    | Monitor.Results _ -> Yes
  in
  let fuzzy_search =
    if found (Monitor.search m "fuzzy-target") "fuzzy-target.example.com" then Yes
    else No
  in
  let ulabel_check =
    (* A deceptive A-label (decodes to LRM + "www"): checked monitors
       refuse the query. *)
    match Monitor.search m "xn--www-hn0a.example.com" with
    | Monitor.Refused _ -> Yes
    | Monitor.Results _ -> No
  in
  let punycode_idn =
    if found (Monitor.search m "xn--bcher-kva.example.com") "xn--bcher-kva.example.com"
    then Yes
    else No
  in
  let punycode_idn_cctld =
    match Monitor.search m "xn--bcher-kva.xn--p1ai" with
    | Monitor.Refused _ -> No
    | r -> if found r "xn--bcher-kva.xn--p1ai" then Yes else No
  in
  let fails_special_unicode =
    if found (Monitor.search m "special\x01.victim-corp.com") "special\x01.victim-corp.com"
    then No
    else Yes
  in
  {
    monitor = prof.Monitor.name;
    case_sensitive;
    unicode_search;
    fuzzy_search;
    ulabel_check;
    punycode_idn;
    punycode_idn_cctld;
    fails_special_unicode;
  }

let table6 () = List.map probe Monitor.all

type concealment = {
  monitor : string;
  forged_cn : string;
  owner_query : string;
  concealed : bool;
}

let concealment_demo () =
  List.concat_map
    (fun prof ->
      let m = Monitor.create prof in
      (* The adversary's CA logs forged certificates whose fields carry
         special characters. *)
      let forged =
        [ ("victim-bank.com/path", "victim-bank.com");
          ("victim bank.com", "victim-bank.com");
          ("victim-bank.com\x00.evil.com", "victim-bank.com") ]
      in
      List.map
        (fun (forged_cn, owner_query) ->
          let cert = cert_for ~cn:(Some forged_cn) [ forged_cn ] in
          Monitor.ingest m cert;
          let visible =
            match Monitor.search m owner_query with
            | Monitor.Refused _ -> false
            | Monitor.Results certs -> List.memq cert certs
          in
          { monitor = prof.Monitor.name; forged_cn; owner_query; concealed = not visible })
        forged)
    Monitor.all

type recall = { monitor : string; found : int; sampled : int }

let corpus_recall ?(scale = 6000) ?(seed = 21) ?mutator ?(drop = false) () =
  (* Collect flawed corpus certificates (the paper samples 1K
     noncompliant Unicerts).  Under a corruption [mutator] the mutated
     blobs no longer parse and cannot be ingested, so recall is
     measured over the surviving deliveries only — identical whether
     the faulty indices deliver corrupted bytes or nothing ([drop]). *)
  let flawed = ref [] in
  Ctlog.Dataset.iter_deliveries ~scale ?mutator ~drop ~seed (fun _ delivery ->
      match delivery with
      | Ctlog.Dataset.Entry e ->
          if e.Ctlog.Dataset.flaws <> [] then
            flawed := e.Ctlog.Dataset.cert :: !flawed
      | Ctlog.Dataset.Corrupt _ -> ());
  let flawed = !flawed in
  List.map
    (fun prof ->
      let m = Monitor.create prof in
      List.iter (Monitor.ingest m) flawed;
      let found =
        List.length
          (List.filter
             (fun cert ->
               match X509.Certificate.san_dns_names cert with
               | [] -> false
               | primary :: _ -> (
                   match Monitor.search m primary with
                   | Monitor.Refused _ -> false
                   | Monitor.Results certs -> List.memq cert certs))
             flawed)
      in
      { monitor = prof.Monitor.name; found; sampled = List.length flawed })
    Monitor.all

let render ppf =
  Format.fprintf ppf "== Table 6: Unicert tolerance among CT monitors ==@.";
  Format.fprintf ppf
    "%-18s | %-9s | %-8s | %-6s | %-7s | %-9s | %-10s | %-13s@." "Monitor" "CaseSens"
    "Unicode" "Fuzzy" "U-check" "Punycode" "Puny-ccTLD" "FailsSpecial";
  List.iter
    (fun (r : row) ->
      Format.fprintf ppf "%-18s | %-9s | %-8s | %-6s | %-7s | %-9s | %-10s | %-13s@."
        r.monitor
        (capability_symbol r.case_sensitive)
        (capability_symbol r.unicode_search)
        (capability_symbol r.fuzzy_search)
        (capability_symbol r.ulabel_check)
        (capability_symbol r.punycode_idn)
        (capability_symbol r.punycode_idn_cctld)
        (capability_symbol r.fails_special_unicode))
    (table6 ());
  Format.fprintf ppf "@.== CT-monitor misleading (concealment) demo ==@.";
  List.iter
    (fun c ->
      if c.concealed then
        Format.fprintf ppf "%-18s conceals forged CN %S from owner query %S@." c.monitor
          c.forged_cn c.owner_query)
    (concealment_demo ());
  Format.fprintf ppf "@.== Noncompliant-Unicert recall by exact SAN query (F.2 battery) ==@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-18s finds %d of %d sampled noncompliant Unicerts (%.1f%%)@."
        r.monitor r.found r.sampled
        (100.0 *. float_of_int r.found /. float_of_int (max 1 r.sampled)))
    (corpus_recall ())
