(* T3a — Illegal Format lints: length overflows, case errors and other
   basic formatting violations.  17 lints, none new (covered by
   established linters). *)

open Types
open Helpers

let length_lint name attr bound =
  let bad (v : Ctx.aval) =
    if v.Ctx.a_attr = attr && Array.length v.Ctx.a_cps > bound then
      Some
        (Printf.sprintf "%s has %d characters (max %d)" (X509.Attr.name attr)
           (Array.length v.Ctx.a_cps) bound)
    else None
  in
  mk ~name
    ~description:
      (Printf.sprintf "%s must not exceed %d characters (RFC 5280 upper bounds)."
         (X509.Attr.name attr) bound)
    ~source:Rfc5280 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
    (fun ctx -> emit Must (List.filter_map bad (subject_values ctx)))

let time_form_issue label ((t : Asn1.Time.t), form) =
  match (t.Asn1.Time.year < 2050, form) with
  | true, X509.Certificate.Generalized ->
      Some (label ^ " uses GeneralizedTime for a pre-2050 date")
  | false, X509.Certificate.Utc -> Some (label ^ " uses UTCTime for a post-2049 date")
  | true, X509.Certificate.Utc | false, X509.Certificate.Generalized -> None

let rfc822_at_signs gn =
  match gn with
  | X509.General_name.Rfc822_name s ->
      let ats = String.fold_left (fun n c -> if c = '@' then n + 1 else n) 0 s in
      if ats <> 1 then Some (Printf.sprintf "rfc822Name %S has %d @ signs" s ats) else None
  | _ -> None

let lints : Types.t list =
  [
    mk ~name:"e_rfc_ext_cp_explicit_text_too_long"
      ~description:
        "CertificatePolicies userNotice explicitText must not exceed 200 \
         characters (RFC 5280 §4.2.1.4)."
      ~source:Rfc5280 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
      (fun ctx ->
        match ctx.Ctx.policies with
        | Some (Ok policies) ->
            let bad =
              List.filter_map
                (fun (p : X509.Extension.policy) ->
                  match p.X509.Extension.notice with
                  | Some { X509.Extension.explicit_text = Some (Asn1.Value.Str (st, raw)) } -> (
                      match Asn1.Str_type.decode_value st raw with
                      | Ok cps when Array.length cps > 200 ->
                          Some
                            (Printf.sprintf "explicitText has %d characters"
                               (Array.length cps))
                      | Ok _ -> None
                      | Error _ ->
                          if String.length raw > 200 then
                            Some
                              (Printf.sprintf "explicitText has %d bytes"
                                 (String.length raw))
                          else None)
                  | _ -> None)
                policies
            in
            emit Must bad
        | Some (Error _) | None -> Na);
    length_lint "e_subject_common_name_max_length" X509.Attr.Common_name 64;
    length_lint "e_subject_organization_name_max_length" X509.Attr.Organization_name 64;
    length_lint "e_subject_locality_name_max_length" X509.Attr.Locality_name 128;
    length_lint "e_subject_state_name_max_length" X509.Attr.State_or_province_name 128;
    mk ~name:"e_subject_country_not_two_letters"
      ~description:"countryName must be exactly two letters (ISO 3166)."
      ~source:Rfc5280 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun (v : Ctx.aval) ->
              if v.Ctx.a_attr <> X509.Attr.Country_name then None
              else if
                Array.length v.Ctx.a_cps = 2
                && Array.for_all Unicode.Props.is_ascii_letter v.Ctx.a_cps
              then None
              else
                Some
                  (Printf.sprintf "countryName %S is not a two-letter code"
                     (Unicode.Codec.utf8_of_cps v.Ctx.a_cps)))
            (subject_values ctx)
        in
        emit Must bad);
    mk ~name:"e_subject_country_not_uppercase"
      ~description:"countryName letters must be upper case (CA/B BR)."
      ~source:Cab_br ~level:Must ~nc_type:Illegal_format ~effective:cab_br_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun (v : Ctx.aval) ->
              if
                v.Ctx.a_attr = X509.Attr.Country_name
                && Array.exists Unicode.Props.is_ascii_lower v.Ctx.a_cps
              then
                Some
                  (Printf.sprintf "countryName %S uses lower case"
                     (Unicode.Codec.utf8_of_cps v.Ctx.a_cps))
              else None)
            (subject_values ctx)
        in
        emit Must bad);
    mk ~name:"e_dns_label_too_long"
      ~description:"DNS labels must not exceed 63 octets (RFC 1034)."
      ~source:Rfc1034 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
      (fun ctx ->
        let bad =
          List.concat_map
            (fun fact ->
              fact.Ctx.d_dns
              |> List.filter_map (function
                   | Idna.Dns.Label_too_long l -> Some (Printf.sprintf "label %S too long" l)
                   | _ -> None))
            ctx.Ctx.dns_facts
        in
        emit Must bad);
    mk ~name:"e_dns_name_too_long"
      ~description:"DNS names must not exceed 253 octets (RFC 1034)."
      ~source:Rfc1034 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
      (fun ctx ->
        let bad =
          List.concat_map
            (fun fact ->
              fact.Ctx.d_dns
              |> List.filter_map (function
                   | Idna.Dns.Name_too_long n -> Some (Printf.sprintf "name length %d" n)
                   | _ -> None))
            ctx.Ctx.dns_facts
        in
        emit Must bad);
    mk ~name:"e_serial_number_longer_than_20_octets"
      ~description:"Certificate serial numbers must fit in 20 octets (RFC 5280)."
      ~source:Rfc5280 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
      (fun ctx ->
        let serial = ctx.Ctx.cert.X509.Certificate.tbs.X509.Certificate.serial in
        if String.length serial > 20 then
          Fail [ Printf.sprintf "serial is %d octets" (String.length serial) ]
        else Pass);
    mk ~name:"e_serial_number_not_positive"
      ~description:"Serial numbers must be positive (RFC 5280)."
      ~source:Rfc5280 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
      (fun ctx ->
        let serial = ctx.Ctx.cert.X509.Certificate.tbs.X509.Certificate.serial in
        if serial = "" || Char.code serial.[0] >= 0x80
           || not (exists_byte (fun c -> c <> '\x00') serial)
        then Fail [ "serial is zero or negative" ]
        else Pass);
    mk ~name:"e_validity_time_wrong_form"
      ~description:
        "Dates through 2049 must use UTCTime; later dates GeneralizedTime \
         (RFC 5280 §4.1.2.5)."
      ~source:Rfc5280 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
      (fun ctx ->
        let tbs = ctx.Ctx.cert.X509.Certificate.tbs in
        emit Must
          (Option.to_list (time_form_issue "notBefore" tbs.X509.Certificate.not_before)
          @ Option.to_list (time_form_issue "notAfter" tbs.X509.Certificate.not_after)));
    mk ~name:"e_subject_empty_attribute_value"
      ~description:"Subject attribute values must not be empty."
      ~source:Cab_br ~level:Must ~nc_type:Illegal_format ~effective:cab_br_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun (v : Ctx.aval) ->
              if v.Ctx.a_raw = "" then Some (X509.Attr.name v.Ctx.a_attr ^ " is empty")
              else None)
            (subject_values ctx)
        in
        emit Must bad);
    mk ~name:"e_san_dnsname_empty"
      ~description:"SAN dNSName entries must not be empty."
      ~source:Cab_br ~level:Must ~nc_type:Illegal_format ~effective:cab_br_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun gn ->
              match gn with
              | X509.General_name.Dns_name "" -> Some "empty dNSName"
              | _ -> None)
            (san_names ctx)
        in
        emit Must bad);
    mk ~name:"e_dnsname_label_empty"
      ~description:"DNSNames must not contain empty labels (consecutive dots)."
      ~source:Rfc1034 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun fact ->
              if fact.Ctx.d_name <> "" && List.mem Idna.Dns.Empty_label fact.Ctx.d_dns
              then Some (Printf.sprintf "%S contains an empty label" fact.Ctx.d_name)
              else None)
            ctx.Ctx.dns_facts
        in
        emit Must bad);
    mk ~name:"e_dnsname_wildcard_malformed"
      ~description:
        "Wildcards must be a sole asterisk in the left-most label (CA/B BR)."
      ~source:Cab_br ~level:Must ~nc_type:Illegal_format ~effective:cab_br_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun fact ->
              let name = fact.Ctx.d_name in
              if not (String.contains name '*') then None
              else
                match fact.Ctx.d_labels with
                | "*" :: rest when not (List.exists (fun l -> String.contains l '*') rest)
                  ->
                    None
                | _ -> Some (Printf.sprintf "%S uses a malformed wildcard" name))
            ctx.Ctx.dns_facts
        in
        emit Must bad);
    mk ~name:"e_rfc822_name_no_at_sign"
      ~description:"rfc822Name values must be mailboxes containing a single @."
      ~source:Rfc5280 ~level:Must ~nc_type:Illegal_format ~effective:rfc5280_date
      (fun ctx ->
        emit Must
          (List.filter_map rfc822_at_signs (san_names ctx)
          @ List.filter_map rfc822_at_signs (ian_names ctx)));
  ]
