type trust = Public | Limited | Untrusted

type issuer = {
  org : string;
  region : string;
  trust_now : trust;
  trust_at_issuance : trust;
  volume : float;
  nc_rate : float;
  nc_decay : float;
  idn_share : float;
  years : int * int * float;
  flaw_mix : (Flaws.t * float) list;
  aggregate : bool;
  keypair : X509.Certificate.keypair;
}

let mk ~org ~region ~trust_now ?trust_at_issuance ~volume ~nc_rate ?(nc_decay = 1.0)
    ~idn_share ~years ~flaw_mix ?(aggregate = false) () =
  {
    org;
    region;
    trust_now;
    trust_at_issuance =
      (match trust_at_issuance with Some t -> t | None -> trust_now);
    volume;
    nc_rate;
    nc_decay;
    idn_share;
    years;
    flaw_mix;
    aggregate;
    keypair = X509.Certificate.mock_keypair ~signer:true ~seed:("issuer:" ^ org) ();
  }

(* Shorthand flaw mixes. *)
let idn_flaws =
  [ (Flaws.Unpermitted_alabel, 0.55); (Flaws.Malformed_alabel, 0.32);
    (Flaws.Nonnfc_alabel, 0.05); (Flaws.Bad_dns_char, 0.08) ]

let mixed_flaws =
  [ (Flaws.Explicit_text_printable, 0.45); (Flaws.Explicit_text_bad_bytes, 0.05);
    (Flaws.Cn_not_in_san, 0.21);
    (Flaws.Deprecated_encoding, 0.11); (Flaws.Unicode_dnsname, 0.05);
    (Flaws.Invisible_space, 0.03); (Flaws.Trailing_whitespace, 0.03);
    (Flaws.Leading_whitespace, 0.02); (Flaws.Country_fullname, 0.02);
    (Flaws.Duplicate_cn, 0.015); (Flaws.Uri_in_san, 0.005);
    (Flaws.Email_unicode, 0.02); (Flaws.Crldp_ctrl, 0.01) ]

(* The calibrated issuer population; volumes in thousands of Unicerts at
   paper scale (34.8M total).  See DESIGN.md §4 for the targets. *)
let issuers =
  [
    mk ~org:"Let's Encrypt" ~region:"US" ~trust_now:Public ~volume:25100.0
      ~nc_rate:0.0006 ~idn_share:1.0 ~years:(2015, 2025, 1.40) ~flaw_mix:idn_flaws ();
    mk ~org:"COMODO CA Limited" ~region:"GB" ~trust_now:Untrusted
      ~trust_at_issuance:Public ~volume:4800.0 ~nc_rate:0.0025 ~idn_share:0.85
      ~years:(2013, 2018, 1.25) ~flaw_mix:mixed_flaws ();
    mk ~org:"cPanel, Inc." ~region:"US" ~trust_now:Public ~volume:1300.0 ~nc_rate:0.004
      ~nc_decay:0.85 ~idn_share:0.95 ~years:(2016, 2025, 1.25) ~flaw_mix:idn_flaws ();
    mk ~org:"Sectigo Limited" ~region:"GB" ~trust_now:Public ~volume:800.0
      ~nc_rate:0.007 ~nc_decay:0.85 ~idn_share:0.85 ~years:(2018, 2025, 1.25)
      ~flaw_mix:(idn_flaws @ [ (Flaws.Explicit_text_printable, 0.2) ]) ();
    mk ~org:"DigiCert Inc" ~region:"US" ~trust_now:Public ~volume:508.0 ~nc_rate:0.14
      ~nc_decay:0.76 ~idn_share:0.40 ~years:(2013, 2025, 1.10)
      ~flaw_mix:
        [ (Flaws.Explicit_text_printable, 0.50); (Flaws.Explicit_text_bad_bytes, 0.06);
          (Flaws.Cn_not_in_san, 0.29); (Flaws.Deprecated_encoding, 0.12);
          (Flaws.Explicit_text_too_long, 0.03) ]
      ();
    mk ~org:"ZeroSSL" ~region:"AT" ~trust_now:Public ~volume:444.0 ~nc_rate:0.035
      ~nc_decay:0.9 ~idn_share:0.95 ~years:(2020, 2025, 1.45) ~flaw_mix:idn_flaws ();
    mk ~org:"Cloudflare, Inc." ~region:"US" ~trust_now:Public ~volume:300.0
      ~nc_rate:0.0004 ~idn_share:1.0 ~years:(2014, 2025, 1.25) ~flaw_mix:idn_flaws ();
    mk ~org:"Amazon" ~region:"US" ~trust_now:Public ~volume:250.0 ~nc_rate:0.0005
      ~idn_share:1.0 ~years:(2015, 2025, 1.30) ~flaw_mix:idn_flaws ();
    mk ~org:"GEANT Vereniging" ~region:"NL" ~trust_now:Public ~volume:215.0
      ~nc_rate:0.035 ~nc_decay:0.78 ~idn_share:0.5 ~years:(2016, 2025, 1.15)
      ~flaw_mix:mixed_flaws ();
    mk ~org:"GoDaddy.com, Inc." ~region:"US" ~trust_now:Public ~volume:180.0
      ~nc_rate:0.035 ~nc_decay:0.78 ~idn_share:0.7 ~years:(2013, 2025, 1.10)
      ~flaw_mix:mixed_flaws ();
    mk ~org:"GlobalSign nv-sa" ~region:"BE" ~trust_now:Public ~volume:120.0
      ~nc_rate:0.025 ~nc_decay:0.78 ~idn_share:0.5 ~years:(2013, 2025, 1.08)
      ~flaw_mix:mixed_flaws ();
    mk ~org:"Certum / Asseco" ~region:"PL" ~trust_now:Public ~volume:90.0 ~nc_rate:0.06
      ~nc_decay:0.78
      ~idn_share:0.45 ~years:(2013, 2025, 1.08)
      ~flaw_mix:
        (mixed_flaws
        @ [ (Flaws.Country_fullname, 0.05); (Flaws.Trailing_whitespace, 0.05) ])
      ();
    mk ~org:"T-Systems / Telekom Security" ~region:"DE" ~trust_now:Public ~volume:60.0
      ~nc_rate:0.08 ~nc_decay:0.78 ~idn_share:0.35 ~years:(2013, 2025, 1.05)
      ~flaw_mix:(mixed_flaws @ [ (Flaws.Utf8_bad_bytes, 0.10) ]) ();
    mk ~org:"DOMENY.PL sp. z o.o." ~region:"PL" ~trust_now:Limited ~volume:49.0
      ~nc_rate:0.08 ~idn_share:0.6 ~years:(2015, 2023, 1.10)
      ~flaw_mix:
        [ (Flaws.Invisible_space, 0.3); (Flaws.Country_fullname, 0.2);
          (Flaws.Cn_not_in_san, 0.3); (Flaws.Explicit_text_printable, 0.2) ]
      ();
    mk ~org:"Dreamcommerce S.A." ~region:"PL" ~trust_now:Limited ~volume:38.6
      ~nc_rate:0.4483 ~idn_share:0.4 ~years:(2015, 2021, 1.05)
      ~flaw_mix:
        [ (Flaws.Cn_not_in_san, 0.52); (Flaws.Explicit_text_printable, 0.43);
          (Flaws.Leading_whitespace, 0.05) ]
      ();
    mk ~org:"Symantec Corporation" ~region:"US" ~trust_now:Untrusted
      ~trust_at_issuance:Public ~volume:35.2 ~nc_rate:0.5147 ~idn_share:0.15
      ~years:(2013, 2017, 0.95)
      ~flaw_mix:
        [ (Flaws.Cn_not_in_san, 0.38); (Flaws.Interval_nul_subject, 0.18);
          (Flaws.Explicit_text_ia5, 0.14); (Flaws.Explicit_text_printable, 0.15);
          (Flaws.Del_in_dn, 0.05); (Flaws.Deprecated_encoding, 0.10) ]
      ();
    mk ~org:"\xC4\x8Cesk\xC3\xA1 po\xC5\xA1ta, s.p." ~region:"CZ" ~trust_now:Untrusted
      ~volume:23.8 ~nc_rate:0.9639 ~idn_share:0.05 ~years:(2013, 2018, 1.00)
      ~flaw_mix:
        [ (Flaws.Deprecated_encoding, 0.42); (Flaws.Cn_not_in_san, 0.18);
          (Flaws.Explicit_text_printable, 0.25); (Flaws.Utf8_bad_bytes, 0.10);
          (Flaws.Control_char_in_dn, 0.05) ]
      ();
    mk ~org:"StartCom Ltd." ~region:"IL" ~trust_now:Untrusted
      ~trust_at_issuance:Public ~volume:19.4 ~nc_rate:0.7297 ~idn_share:0.25
      ~years:(2013, 2017, 1.00)
      ~flaw_mix:
        [ (Flaws.Explicit_text_ia5, 0.30); (Flaws.Cn_not_in_san, 0.30);
          (Flaws.Explicit_text_printable, 0.20); (Flaws.Utf8_bad_bytes, 0.10);
          (Flaws.Control_char_in_dn, 0.10) ]
      ();
    mk ~org:"ACCV" ~region:"ES" ~trust_now:Limited ~volume:20.0 ~nc_rate:0.14
      ~idn_share:0.2 ~years:(2013, 2024, 1.02)
      ~flaw_mix:
        [ (Flaws.Duplicate_cn, 0.3); (Flaws.Deprecated_encoding, 0.4);
          (Flaws.Explicit_text_printable, 0.3) ]
      ();
    mk ~org:"Netlock Kft." ~region:"HU" ~trust_now:Limited ~volume:20.0 ~nc_rate:0.12
      ~idn_share:0.3 ~years:(2013, 2024, 1.02) ~flaw_mix:mixed_flaws ();
    mk ~org:"Government of Korea" ~region:"KR" ~trust_now:Untrusted ~volume:11.9
      ~nc_rate:0.8733 ~idn_share:0.05 ~years:(2013, 2020, 1.00)
      ~flaw_mix:
        [ (Flaws.Deprecated_encoding, 0.50); (Flaws.Duplicate_cn, 0.15);
          (Flaws.Explicit_text_printable, 0.20); (Flaws.Bmp_odd_bytes, 0.05);
          (Flaws.Cn_not_in_san, 0.10) ]
      ();
    mk ~org:"VeriSign, Inc." ~region:"US" ~trust_now:Public ~volume:12.7
      ~nc_rate:0.5912 ~idn_share:0.10 ~years:(2013, 2015, 0.90)
      ~flaw_mix:
        [ (Flaws.Interval_nul_subject, 0.25); (Flaws.Cn_not_in_san, 0.35);
          (Flaws.Deprecated_encoding, 0.25); (Flaws.Explicit_text_printable, 0.15) ]
      ();
    mk ~org:"Thawte Consulting" ~region:"ZA" ~trust_now:Untrusted
      ~trust_at_issuance:Public ~volume:8.0 ~nc_rate:0.50 ~idn_share:0.10
      ~years:(2013, 2016, 0.95)
      ~flaw_mix:[ (Flaws.Interval_nul_subject, 0.6); (Flaws.Cn_not_in_san, 0.4) ] ();
    mk ~org:"IPS CA" ~region:"ES" ~trust_now:Untrusted ~volume:2.5 ~nc_rate:0.60
      ~idn_share:0.05 ~years:(2013, 2015, 0.90)
      ~flaw_mix:[ (Flaws.Interval_nul_subject, 0.85); (Flaws.Del_in_dn, 0.15) ] ();
    mk ~org:"Government / regional CAs" ~region:"various" ~trust_now:Limited
      ~volume:1500.0 ~nc_rate:0.075 ~nc_decay:0.80 ~idn_share:0.15
      ~years:(2013, 2025, 1.05)
      ~flaw_mix:
        [ (Flaws.Deprecated_encoding, 0.30); (Flaws.Explicit_text_printable, 0.30);
          (Flaws.Cn_not_in_san, 0.25); (Flaws.Explicit_text_bmp, 0.05);
          (Flaws.Invisible_space, 0.05); (Flaws.Wrong_time_form, 0.05) ]
      ~aggregate:true ();
    mk ~org:"Other public CAs" ~region:"various" ~trust_now:Public ~volume:400.0
      ~nc_rate:0.95 ~nc_decay:0.66 ~idn_share:0.45 ~years:(2013, 2025, 1.10)
      ~flaw_mix:mixed_flaws ~aggregate:true ();
    mk ~org:"Other regional CAs" ~region:"various" ~trust_now:Limited ~volume:800.0
      ~nc_rate:0.010 ~nc_decay:0.85 ~idn_share:0.30 ~years:(2013, 2024, 1.02)
      ~flaw_mix:mixed_flaws ~aggregate:true ();
  ]

type entry = {
  cert : X509.Certificate.t;
  issued : Asn1.Time.t;
  issuer : issuer;
  flaws : Flaws.t list;
  is_idn : bool;
}

let default_scale = 60_000
let analysis_date = Asn1.Time.make 2025 4 30

let issuer_dn_uncached issuer =
  X509.Dn.of_list
    [ (X509.Attr.Country_name, if String.length issuer.region = 2 then issuer.region else "US");
      (X509.Attr.Organization_name, issuer.org);
      (X509.Attr.Common_name, issuer.org ^ " TLS CA") ]

(* Issuer DNs are pure functions of the (fixed) issuer table; built
   eagerly at module init so the per-certificate path only does an
   assoc lookup, and the list stays read-only under [Par] domains. *)
let issuer_dns = List.map (fun i -> (i.org, issuer_dn_uncached i)) issuers

let issuer_dn issuer =
  match List.assoc_opt issuer.org issuer_dns with
  | Some dn -> dn
  | None -> issuer_dn_uncached issuer

let sample_year g issuer =
  let y0, y1, growth = issuer.years in
  let weights =
    List.init (y1 - y0 + 1) (fun i -> (y0 + i, growth ** float_of_int i))
  in
  Ucrypto.Prng.weighted g weights

let sample_issued g issuer =
  let year = sample_year g issuer in
  let month = 1 + Ucrypto.Prng.int g 12 in
  let day = 1 + Ucrypto.Prng.int g (Asn1.Time.days_in_month year month) in
  Asn1.Time.make ~hour:(Ucrypto.Prng.int g 24) year month day

(* Validity periods: automated/IDN issuance follows the 90-day trend;
   noncompliant legacy certificates skew long (Figure 3). *)
let sample_validity g ~is_idn ~noncompliant =
  if noncompliant then begin
    let r = Ucrypto.Prng.float g in
    if r < 0.20 then 700 + Ucrypto.Prng.int g 400
    else if r < 0.50 then 365 + Ucrypto.Prng.int g 335
    else 90 + Ucrypto.Prng.int g 275
  end
  else if is_idn && Ucrypto.Prng.float g < 0.896 then 90
  else begin
    let r = Ucrypto.Prng.float g in
    if r < 0.5 then 90
    else if r < 0.893 then 365 + Ucrypto.Prng.int g 33
    else 398 + Ucrypto.Prng.int g 200
  end

let base_spec g ~is_idn : Flaws.spec =
  if is_idn then begin
    let domain = Subjects.random_idn_domain g in
    {
      subject = [ X509.Dn.atv X509.Attr.Common_name domain ];
      san =
        (X509.General_name.Dns_name domain
        ::
        (if Ucrypto.Prng.float g < 0.4 then
           [ X509.General_name.Dns_name ("www." ^ domain) ]
         else []));
      policies = [];
      crldp = [];
      not_before_form = None;
    }
  end
  else begin
    let org, country =
      if Ucrypto.Prng.float g < 0.7 then Ucrypto.Prng.pick g Subjects.unicode_orgs
      else Ucrypto.Prng.pick g Subjects.ascii_orgs
    in
    let domain = Subjects.random_ascii_domain g in
    {
      subject =
        [ X509.Dn.atv X509.Attr.Country_name country;
          X509.Dn.atv X509.Attr.Locality_name (Ucrypto.Prng.pick g Subjects.localities);
          X509.Dn.atv X509.Attr.Organization_name org;
          X509.Dn.atv X509.Attr.Common_name domain ];
      san = [ X509.General_name.Dns_name domain ];
      policies = [];
      crldp = [];
      not_before_form = None;
    }
  end

let sample_flaws g issuer =
  let first = Ucrypto.Prng.weighted g issuer.flaw_mix in
  if Ucrypto.Prng.float g < 0.15 then begin
    let second = Ucrypto.Prng.weighted g issuer.flaw_mix in
    if second = first then [ first ] else [ first; second ]
  end
  else [ first ]

(* Extensions whose payload never varies across certificates, built
   (and DER-encoded) exactly once at module init.  Extension values are
   immutable records, so sharing one across every certificate is safe
   — re-encoding the same AIA for each of 60k certs was measurable. *)
let ext_key_usage = X509.Extension.key_usage 0x05

let ext_aia =
  X509.Extension.authority_info_access
    [ (X509.Extension.Oids.ocsp, X509.General_name.Uri "http://ocsp.example-ca.test");
      (X509.Extension.Oids.ca_issuers,
       X509.General_name.Uri "http://certs.example-ca.test/ca.crt") ]

let ext_ian =
  X509.Extension.issuer_alt_name [ X509.General_name.Uri "http://www.example-ca.test" ]

let ext_sia =
  X509.Extension.subject_info_access
    [ (X509.Extension.Oids.ca_issuers,
       X509.General_name.Uri "http://repository.example-ca.test") ]

let build_cert g issuer (spec : Flaws.spec) ~issued ~validity ~serial =
  let extensions =
    [ X509.Extension.subject_alt_name spec.Flaws.san; ext_key_usage; ext_aia ]
    @ (if spec.Flaws.policies = [] then []
       else [ X509.Extension.certificate_policies spec.Flaws.policies ])
    @ (if spec.Flaws.crldp = [] then []
       else [ X509.Extension.crl_distribution_points spec.Flaws.crldp ])
    (* A minority of issuers also populate IAN / SIA, so those fields
       appear in the Figure 4 field survey. *)
    @ (if Ucrypto.Prng.float g < 0.06 then [ ext_ian ] else [])
    @ if Ucrypto.Prng.float g < 0.03 then [ ext_sia ] else []
  in
  let leaf_key = X509.Certificate.mock_keypair ~seed:("leaf:" ^ serial) () in
  let tbs =
    X509.Certificate.make_tbs ~serial
      ~issuer:(issuer_dn issuer)
      ~subject:(X509.Dn.single spec.Flaws.subject)
      ~not_before:issued
      ~not_after:(Asn1.Time.add_days issued validity)
      ?not_before_form:spec.Flaws.not_before_form
      ~spki:(X509.Certificate.keypair_spki leaf_key)
      ~sig_alg:X509.Certificate.Oids.mock_signature ~extensions ()
  in
  X509.Certificate.sign issuer.keypair tbs

(* Era practices: defects that predate the rules now forbidding them
   (footnote-4 ablation).  They are invisible to effective-date-gated
   linting but surface when dates are ignored. *)
let era_flaws g spec ~is_idn ~year =
  if year >= 2018 then []
  else if is_idn then begin
    let flaw =
      Ucrypto.Prng.weighted g [ (Flaws.Nonnfc_alabel, 0.45); (Flaws.Malformed_alabel, 0.55) ]
    in
    (match flaw with
    | Flaws.Malformed_alabel ->
        (* An LDH-clean undecodable A-label: only the RFC 8399 lint
           (effective 2018) catches it. *)
        Flaws.set_primary_dns spec "xn--.example.com"
    | flaw -> Flaws.apply g spec flaw);
    [ flaw ]
  end
  else if year < 2015 then begin
    let flaw =
      Ucrypto.Prng.weighted g
        [ (Flaws.Del_in_dn, 0.3); (Flaws.Leading_whitespace, 0.2);
          (Flaws.Trailing_whitespace, 0.25); (Flaws.Invisible_space, 0.15);
          (Flaws.Replacement_char, 0.1) ]
    in
    Flaws.apply g spec flaw;
    [ flaw ]
  end
  else []

let generate_entry g issuer =
  let is_idn = Ucrypto.Prng.float g < issuer.idn_share in
  let issued = sample_issued g issuer in
  let y0, _, _ = issuer.years in
  let year_rate =
    issuer.nc_rate *. (issuer.nc_decay ** float_of_int (issued.Asn1.Time.year - y0))
  in
  let noncompliant = Ucrypto.Prng.float g < year_rate in
  let spec = base_spec g ~is_idn in
  let flaws = if noncompliant then sample_flaws g issuer else [] in
  List.iter (Flaws.apply g spec) flaws;
  let flaws =
    if flaws = [] && Ucrypto.Prng.float g < 0.35 then
      era_flaws g spec ~is_idn ~year:issued.Asn1.Time.year
    else flaws
  in
  let validity = sample_validity g ~is_idn ~noncompliant in
  (* Positive, minimally-encoded serial: clear the sign bit and avoid a
     leading zero octet. *)
  let serial =
    let raw = Ucrypto.Prng.bytes g 10 in
    String.init 10 (fun i ->
        if i = 0 then Char.chr ((Char.code raw.[0] land 0x7F) lor 0x01)
        else raw.[i])
  in
  let cert = build_cert g issuer spec ~issued ~validity ~serial in
  { cert; issued; issuer; flaws; is_idn }

(* Telemetry handles, resolved once: the per-entry path below must not
   pay a registry lookup per certificate. *)
let obs_certs =
  lazy
    (Obs.Registry.counter
       ~help:"Certificates streamed through the corpus pipeline"
       "unicert_pipeline_certs_total")

let obs_idn =
  lazy
    (Obs.Registry.counter ~help:"Generated certificates that are IDNCerts"
       "unicert_dataset_idn_total")

let obs_flaws =
  lazy
    (Obs.Registry.labeled_counter ~label:"flaw"
       ~help:"Defects injected by the corpus generator"
       "unicert_dataset_flaws_injected_total")

type delivery =
  | Entry of entry
  | Corrupt of { der : string; error : Faults.Error.t }

let obs_injected =
  lazy
    (Obs.Registry.labeled_counter ~label:"kind"
       ~help:"Corpus certificates corrupted by the fault mutator"
       "unicert_fault_injected_total")

(* Corrupt until the result really fails to parse (a bit flip can land
   in a don't-care byte).  The typed exhaustion path is unreachable for
   realistic certificates — the last-resort half-truncation never
   parses — but if it ever fires we record it and deliver the clean
   entry rather than asserting. *)
let corrupt_der plan index der =
  let rejects bad =
    match X509.Certificate.parse bad with Error e -> Some e | Ok _ -> None
  in
  match Faults.Mutator.mutate_rejected plan ~index ~rejects der with
  | Ok (bad, kind, error) -> Some (bad, kind, error)
  | Error { Faults.Mutator.index; attempts } ->
      Faults.Error.observe
        (Faults.Error.Resource
           { stage = "mutate";
             detail =
               Printf.sprintf "index %d resisted %d corruption attempts" index
                 attempts });
      None

let issuer_weights =
  lazy
    (let total = List.fold_left (fun acc i -> acc +. i.volume) 0.0 issuers in
     List.map (fun i -> (i, i.volume /. total)) issuers)

(* Each corpus index draws from its own splitmix stream keyed by
   [(seed, index)], so an entry is a pure function of the pair: any
   contiguous sub-range of indices — a resume, a shard of a parallel
   run — regenerates byte-identical certificates without replaying the
   indices before it. *)
let generate_at ~seed index =
  let g = Ucrypto.Prng.of_pair seed index in
  let issuer = Ucrypto.Prng.weighted g (Lazy.force issuer_weights) in
  generate_entry g issuer

let issuer_by_org =
  lazy (List.map (fun i -> (i.org, i)) issuers)

let issuer_of_org org = List.assoc_opt org (Lazy.force issuer_by_org)

(* Rebuild an [entry] from bytes fetched off a log rather than from the
   in-process generator: recover the issuer record by the certificate's
   IssuerOrganizationName and re-derive the analysis inputs the
   pipeline reads ([issued], [is_idn]).  [flaws] stays empty — the
   linter rediscovers defects from the DER, which is all downstream
   analysis consumes. *)
let entry_of_cert (cert : X509.Certificate.t) =
  match
    X509.Dn.get_text cert.X509.Certificate.tbs.X509.Certificate.issuer
      X509.Attr.Organization_name
  with
  | [] ->
      Error
        (Faults.Error.Decode_error
           { offset = None; detail = "fetched entry: no issuer organizationName" })
  | org :: _ -> (
      match List.assoc_opt org (Lazy.force issuer_by_org) with
      | None ->
          Error
            (Faults.Error.Decode_error
               { offset = None;
                 detail =
                   Printf.sprintf "fetched entry: unknown issuer %S" org })
      | Some issuer ->
          let issued = fst cert.X509.Certificate.tbs.X509.Certificate.not_before in
          let is_idn =
            List.exists
              (fun d ->
                List.exists
                  (fun label ->
                    String.length label >= 4 && String.sub label 0 4 = "xn--")
                  (String.split_on_char '.' d))
              (X509.Certificate.san_dns_names cert)
          in
          Ok { cert; issued; issuer; flaws = []; is_idn })

let prewarm () =
  ignore (Lazy.force issuer_weights);
  ignore (Lazy.force issuer_by_org);
  ignore (Lazy.force obs_certs);
  ignore (Lazy.force obs_idn);
  ignore (Lazy.force obs_flaws);
  ignore (Lazy.force obs_injected)

(* The full streaming loop.  Corruption decisions never touch the
   entry's generator: the mutator derives all randomness from
   [(plan.seed, index)], so runs with and without faults generate
   byte-identical certificates.  [start]/[stop] bound the generated
   index range — entries outside it are neither generated nor counted,
   which is what makes checkpoint resume and range sharding cheap.
   [drop] delivers nothing for corrupted indices, producing the
   clean-subset reference run the fault-smoke A/B check compares
   against. *)
let generate_span = Obs.Span.v "generate"

let iter_deliveries ?(scale = default_scale) ?(start = 0) ?stop ?mutator
    ?(drop = false) ~seed f =
  let stop = match stop with Some s -> s | None -> scale in
  let certs = Lazy.force obs_certs in
  let idn = Lazy.force obs_idn in
  let flaws = Lazy.force obs_flaws in
  let injected = match mutator with Some _ -> Some (Lazy.force obs_injected) | None -> None in
  let progress = Obs.Progress.create ~total:(max 0 (stop - start)) ~label:"generate" () in
  for i = start to stop - 1 do
    let e = Obs.Span.run generate_span (fun () -> generate_at ~seed i) in
    Obs.Counter.inc certs;
    if e.is_idn then Obs.Counter.inc idn;
    List.iter
      (fun fl -> Obs.Counter.inc (Obs.Counter.Labeled.get flaws (Flaws.name fl)))
      e.flaws;
    Obs.Progress.tick progress;
    match mutator with
    | Some plan when Faults.Mutator.hits plan i ->
        if not drop then begin
          match corrupt_der plan i e.cert.X509.Certificate.der with
          | Some (der, kind, error) ->
              (match injected with
              | Some c ->
                  Obs.Counter.inc
                    (Obs.Counter.Labeled.get c (Faults.Mutator.kind_name kind))
              | None -> ());
              f i (Corrupt { der; error })
          | None -> f i (Entry e)
        end
    | _ -> f i (Entry e)
  done;
  Obs.Progress.finish progress

let iter ?scale ~seed f =
  iter_deliveries ?scale ~seed (fun _ -> function
    | Entry e -> f e
    | Corrupt _ -> ())

let generate ?scale ~seed () =
  let out = ref [] in
  iter ?scale ~seed (fun e -> out := e :: !out);
  List.rev !out

(* Modelled after §4.1: most issuances run the full RFC 6962 flow
   (precert + final = two entries), and a fraction of precertificates
   never get their final certificate logged, pushing the precert share
   among entries above one half.  For a target share r, emitting an
   extra precert-only submission with probability p = (2r-1)/(1-r)
   yields share (1+p)/(2+p) = r. *)
let populate_log ?(scale = 200) ?(precert_rate = 0.547) ~seed log =
  let g = Ucrypto.Prng.create (seed lxor 0x5C7) in
  let extra_precert_prob =
    if precert_rate <= 0.5 then 0.0
    else ((2.0 *. precert_rate) -. 1.0) /. (1.0 -. precert_rate)
  in
  let precerts = ref 0 and finals = ref 0 in
  iter ~scale ~seed (fun e ->
      let issued =
        Submission.issue_with_sct log e.issuer.keypair e.cert.X509.Certificate.tbs
      in
      ignore issued;
      incr precerts;
      incr finals;
      if Ucrypto.Prng.float g < extra_precert_prob then begin
        (* An abandoned precertificate: logged, never followed up. *)
        let poisoned =
          { e.cert.X509.Certificate.tbs with
            X509.Certificate.extensions =
              e.cert.X509.Certificate.tbs.X509.Certificate.extensions
              @ [ X509.Extension.ct_poison ] }
        in
        let precert = X509.Certificate.sign e.issuer.keypair poisoned in
        ignore (Log.add_chain log ~precert:true precert.X509.Certificate.der);
        incr precerts
      end);
  (!precerts, !finals)
