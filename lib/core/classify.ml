let raw_of_atv (atv : X509.Dn.atv) =
  match atv.X509.Dn.value with Asn1.Value.Str (_, raw) -> Some raw | _ -> None

let beyond_printable_ascii raw =
  String.exists (fun c -> Char.code c < 0x20 || Char.code c > 0x7E) raw

let subject_issuer_raws cert =
  let tbs = cert.X509.Certificate.tbs in
  List.filter_map raw_of_atv
    (X509.Dn.all_atvs tbs.X509.Certificate.subject
    @ X509.Dn.all_atvs tbs.X509.Certificate.issuer)

let san_payloads cert =
  match
    X509.Extension.find cert.X509.Certificate.tbs.X509.Certificate.extensions
      X509.Extension.Oids.subject_alt_name
  with
  | None -> []
  | Some e -> (
      match X509.Extension.parse_general_names e.X509.Extension.value with
      | Error _ -> []
      | Ok gns ->
          List.filter_map
            (function
              | X509.General_name.Dns_name s | X509.General_name.Rfc822_name s
              | X509.General_name.Uri s ->
                  Some s
              | _ -> None)
            gns)

let has_non_printable_ascii cert =
  List.exists beyond_printable_ascii (subject_issuer_raws cert)
  || List.exists beyond_printable_ascii (san_payloads cert)

let dns_like cert =
  X509.Certificate.san_dns_names cert
  @ List.filter (fun cn -> String.contains cn '.')
      (X509.Dn.get_text cert.X509.Certificate.tbs.X509.Certificate.subject
         X509.Attr.Common_name)

let has_idn cert = List.exists Idna.is_idn (dns_like cert)
let is_unicert cert = has_non_printable_ascii cert || has_idn cert

(* The 21 fields Figure 4 surveys. *)
let subject_attrs =
  [ X509.Attr.Common_name; X509.Attr.Organization_name;
    X509.Attr.Organizational_unit_name; X509.Attr.Locality_name;
    X509.Attr.State_or_province_name; X509.Attr.Country_name;
    X509.Attr.Street_address; X509.Attr.Postal_code; X509.Attr.Serial_number;
    X509.Attr.Email_address; X509.Attr.Business_category;
    X509.Attr.Jurisdiction_locality; X509.Attr.Jurisdiction_state;
    X509.Attr.Jurisdiction_country ]

let issuer_attrs =
  [ X509.Attr.Common_name; X509.Attr.Organization_name; X509.Attr.Country_name ]

(* Field labels are fixed; building "subject.commonName" etc. per
   certificate would allocate 17 strings on every classify call. *)
let subject_fields =
  List.map (fun a -> (a, "subject." ^ X509.Attr.name a)) subject_attrs

let issuer_fields =
  List.map (fun a -> (a, "issuer." ^ X509.Attr.name a)) issuer_attrs

let unicode_fields cert =
  let tbs = cert.X509.Certificate.tbs in
  let attr_field prefix dn attr =
    let values = X509.Dn.get dn attr in
    let beyond =
      List.exists
        (fun atv ->
          match raw_of_atv atv with
          | Some raw -> beyond_printable_ascii raw
          | None -> false)
        values
    in
    (prefix ^ X509.Attr.name attr, beyond)
  in
  let san_beyond = List.exists beyond_printable_ascii (san_payloads cert) in
  let san_idn =
    List.exists (fun d -> Idna.is_idn d) (X509.Certificate.san_dns_names cert)
  in
  let cp_beyond =
    match
      X509.Extension.find tbs.X509.Certificate.extensions
        X509.Extension.Oids.certificate_policies
    with
    | None -> false
    | Some e -> beyond_printable_ascii e.X509.Extension.value
  in
  List.map (attr_field "subject." tbs.X509.Certificate.subject) subject_attrs
  @ List.map (attr_field "issuer." tbs.X509.Certificate.issuer) issuer_attrs
  @ [ ("san.dNSName", san_beyond || san_idn);
      ("san.other", san_beyond);
      ("ext.certificatePolicies", cp_beyond);
      ("ext.crlDistributionPoints", false) ]

(* Fused-path variant of {!unicode_fields}: every fact comes out of the
   precomputed table — no DN re-walk, no SAN re-parse.  Must stay
   observably identical to {!unicode_fields}; the differential test
   drives both. *)
let unicode_fields_of_ctx (ctx : Lint.Ctx.t) =
  (* One raw scan per value, then 17 membership tests — not one scan
     per (attribute, value) pair. *)
  let beyond_attrs vals =
    List.filter_map
      (fun (v : Lint.Ctx.aval) ->
        if beyond_printable_ascii v.Lint.Ctx.a_raw then Some v.Lint.Ctx.a_attr
        else None)
      vals
  in
  let subject_beyond = beyond_attrs ctx.Lint.Ctx.subject_vals in
  let issuer_beyond = beyond_attrs ctx.Lint.Ctx.issuer_vals in
  let attr_field beyond (attr, name) = (name, List.mem attr beyond) in
  let san_strs =
    match ctx.Lint.Ctx.san with
    | Some (Ok gns) ->
        List.filter_map
          (function
            | X509.General_name.Dns_name s | X509.General_name.Rfc822_name s
            | X509.General_name.Uri s ->
                Some s
            | _ -> None)
          gns
    | Some (Error _) | None -> []
  in
  let san_beyond = List.exists beyond_printable_ascii san_strs in
  let san_idn = List.exists Idna.is_idn (Lint.Ctx.san_dns ctx) in
  let cp_beyond =
    match
      X509.Extension.find
        ctx.Lint.Ctx.cert.X509.Certificate.tbs.X509.Certificate.extensions
        X509.Extension.Oids.certificate_policies
    with
    | None -> false
    | Some e -> beyond_printable_ascii e.X509.Extension.value
  in
  List.map (attr_field subject_beyond) subject_fields
  @ List.map (attr_field issuer_beyond) issuer_fields
  @ [ ("san.dNSName", san_beyond || san_idn);
      ("san.other", san_beyond);
      ("ext.certificatePolicies", cp_beyond);
      ("ext.crlDistributionPoints", false) ]
