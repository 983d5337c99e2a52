(* T3b — Invalid Encoding lints: unsupported or deprecated ASN.1 string
   types and physically broken encodings.  48 lints, 37 of them the
   paper's new Unicode-specific checks. *)

open Types
open Helpers

let st_name = Asn1.Str_type.name

(* Attribute must be encoded with one of [allowed] string types.  The
   per-value check is built once, so a clean pass allocates nothing;
   string types are constant constructors, so [List.memq] is exact. *)
let attr_encoding_lint ~name ~attr ~in_issuer ~allowed ~source ~level ~is_new ~effective
    ~description =
  let bad (v : Ctx.aval) =
    if v.Ctx.a_attr <> attr || List.memq v.Ctx.a_st allowed then None
    else
      Some
        (Printf.sprintf "%s%s encoded as %s"
           (if in_issuer then "issuer " else "")
           (X509.Attr.name attr) (st_name v.Ctx.a_st))
  in
  mk ~name ~description ~source ~level ~nc_type:Invalid_encoding ~is_new ~effective
    (fun ctx ->
      emit level
        (List.filter_map bad
           (if in_issuer then ctx.Ctx.issuer_vals else ctx.Ctx.subject_vals)))

let printable_or_utf8 = [ Asn1.Str_type.Printable_string; Asn1.Str_type.Utf8_string ]

let not_printable_or_utf8 name attr =
  attr_encoding_lint ~name ~attr ~in_issuer:false ~allowed:printable_or_utf8
    ~source:Cab_br ~level:Must ~is_new:true ~effective:cab_br_date
    ~description:
      (Printf.sprintf "%s must be encoded as PrintableString or UTF8String (CA/B BR)."
         (X509.Attr.name attr))

(* GeneralName payloads are IA5String; raw bytes above 0x7F violate the
   declared encoding.  [over] applies the per-name check to the names
   the lint covers, of which [keep] selects the ones to check. *)
let gn_ia5_lint ~name ~what ?(keep = fun _ -> true) ~over ~effective ~is_new () =
  let check kind s =
    non_ia5 s |> List.map (fun b -> Printf.sprintf "%s %s byte 0x%02X" what kind b)
  in
  let bad gn =
    if not (keep gn) then []
    else
      match gn with
      | X509.General_name.Dns_name s -> check "dNSName" s
      | X509.General_name.Rfc822_name s -> check "rfc822Name" s
      | X509.General_name.Uri s -> check "URI" s
      | X509.General_name.Other_name _ | X509.General_name.Directory_name _
      | X509.General_name.Ip_address _ | X509.General_name.Registered_id _ ->
          []
  in
  mk ~name
    ~description:
      (Printf.sprintf "%s values are IA5String and must stay within 7-bit ASCII." what)
    ~source:Rfc5280 ~level:Must ~nc_type:Invalid_encoding ~is_new ~effective
    (fun ctx -> emit Must (over bad ctx))

let over_san f ctx = List.concat_map f (san_names ctx)

(* Byte-pattern scans over declared UTF8String payloads.  Both scanners
   only ever match bytes >= 0x80, so pure-ASCII payloads (the cached
   [a_has_hi] bit) skip the scan. *)
let utf8_pattern_lint ~name ~description ~is_new ~level ~source ~effective pred =
  let bad (v : Ctx.aval) =
    if v.Ctx.a_st <> Asn1.Str_type.Utf8_string || not v.Ctx.a_has_hi then []
    else
      pred v.Ctx.a_raw |> List.map (fun m -> X509.Attr.name v.Ctx.a_attr ^ ": " ^ m)
  in
  mk ~name ~description ~source ~level ~nc_type:Invalid_encoding ~is_new ~effective
    (fun ctx -> emit level (List.concat_map bad (all_values ctx)))

let overlong_sequences raw =
  let issues = ref [] in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      if b = 0xC0 || b = 0xC1 then
        issues := Printf.sprintf "overlong UTF-8 lead byte 0x%02X at %d" b i :: !issues
      else if b = 0xE0 && i + 1 < String.length raw && Char.code raw.[i + 1] < 0xA0
              && Char.code raw.[i + 1] >= 0x80 then
        issues := Printf.sprintf "overlong 3-byte sequence at %d" i :: !issues
      else if b = 0xF0 && i + 1 < String.length raw && Char.code raw.[i + 1] < 0x90
              && Char.code raw.[i + 1] >= 0x80 then
        issues := Printf.sprintf "overlong 4-byte sequence at %d" i :: !issues)
    raw;
  List.rev !issues

let surrogate_sequences raw =
  let issues = ref [] in
  String.iteri
    (fun i c ->
      if Char.code c = 0xED && i + 1 < String.length raw
         && Char.code raw.[i + 1] >= 0xA0 && Char.code raw.[i + 1] <= 0xBF
      then issues := Printf.sprintf "UTF-8-encoded surrogate at %d" i :: !issues)
    raw;
  List.rev !issues

let explicit_texts ctx = ctx.Ctx.etexts

(* Does some attribute occur with two different string types? *)
let rec mixed_encodings = function
  | [] -> false
  | (v : Ctx.aval) :: rest -> same_attr_other_type v rest || mixed_encodings rest

and same_attr_other_type (v : Ctx.aval) = function
  | [] -> false
  | (w : Ctx.aval) :: rest ->
      (w.Ctx.a_attr = v.Ctx.a_attr && w.Ctx.a_st <> v.Ctx.a_st)
      || same_attr_other_type v rest

let lints : Types.t list =
  [
    (* ------------------------------------------------------------------
       Established lints (11) *)
    mk ~name:"w_rfc_ext_cp_explicit_text_not_utf8"
      ~description:
        "CertificatePolicies explicitText SHOULD be encoded as UTF8String \
         (RFC 5280 §4.2.1.4)."
      ~source:Rfc5280 ~level:Should ~nc_type:Invalid_encoding ~effective:rfc5280_date
      (fun ctx ->
        let texts = explicit_texts ctx in
        if texts = [] then Na
        else
          emit Should
            (List.filter_map
               (fun (st, _) ->
                 if st = Asn1.Str_type.Utf8_string then None
                 else Some (Printf.sprintf "explicitText encoded as %s" (st_name st)))
               texts));
    mk ~name:"e_rfc_ext_cp_explicit_text_ia5"
      ~description:"explicitText MUST NOT be IA5String (RFC 5280 §4.2.1.4)."
      ~source:Rfc5280 ~level:Must_not ~nc_type:Invalid_encoding ~effective:rfc5280_date
      (fun ctx ->
        let texts = explicit_texts ctx in
        if texts = [] then Na
        else
          emit Must_not
            (List.filter_map
               (fun (st, _) ->
                 if st = Asn1.Str_type.Ia5_string then Some "explicitText is IA5String"
                 else None)
               texts));
    attr_encoding_lint ~name:"e_rfc_subject_country_not_printable"
      ~attr:X509.Attr.Country_name ~in_issuer:false
      ~allowed:[ Asn1.Str_type.Printable_string ] ~source:Rfc5280 ~level:Must
      ~is_new:false ~effective:rfc5280_date
      ~description:"countryName must be a PrintableString (RFC 5280)." ;
    attr_encoding_lint ~name:"e_subject_dn_serial_number_not_printable"
      ~attr:X509.Attr.Serial_number ~in_issuer:false
      ~allowed:[ Asn1.Str_type.Printable_string ] ~source:Rfc5280 ~level:Must
      ~is_new:false ~effective:rfc5280_date
      ~description:"serialNumber must be a PrintableString (RFC 5280)." ;
    attr_encoding_lint ~name:"e_subject_email_address_not_ia5"
      ~attr:X509.Attr.Email_address ~in_issuer:false
      ~allowed:[ Asn1.Str_type.Ia5_string ] ~source:Rfc5280 ~level:Must ~is_new:false
      ~effective:rfc5280_date
      ~description:"emailAddress must be an IA5String (RFC 5280)." ;
    attr_encoding_lint ~name:"e_subject_dc_not_ia5" ~attr:X509.Attr.Domain_component
      ~in_issuer:false ~allowed:[ Asn1.Str_type.Ia5_string ] ~source:Rfc5280 ~level:Must
      ~is_new:false ~effective:rfc5280_date
      ~description:"domainComponent must be an IA5String (RFC 4519/5280)." ;
    mk ~name:"w_subject_dn_uses_teletex_string"
      ~description:
        "TeletexString is deprecated for new subjects (RFC 5280: UTF8String or \
         PrintableString SHOULD be used)."
      ~source:Rfc5280 ~level:Should_not ~nc_type:Invalid_encoding ~effective:rfc5280_date
      (fun ctx ->
        emit Should_not
          (List.filter_map
             (fun (v : Ctx.aval) ->
               if v.Ctx.a_st = Asn1.Str_type.Teletex_string then
                 Some (X509.Attr.name v.Ctx.a_attr ^ " uses TeletexString")
               else None)
             (subject_values ctx)));
    mk ~name:"w_subject_dn_uses_bmp_string"
      ~description:"BMPString is deprecated for new subjects (RFC 5280)."
      ~source:Rfc5280 ~level:Should_not ~nc_type:Invalid_encoding ~effective:rfc5280_date
      (fun ctx ->
        emit Should_not
          (List.filter_map
             (fun (v : Ctx.aval) ->
               if v.Ctx.a_st = Asn1.Str_type.Bmp_string then
                 Some (X509.Attr.name v.Ctx.a_attr ^ " uses BMPString")
               else None)
             (subject_values ctx)));
    mk ~name:"w_subject_dn_uses_universal_string"
      ~description:"UniversalString is deprecated for new subjects (RFC 5280)."
      ~source:Rfc5280 ~level:Should_not ~nc_type:Invalid_encoding ~effective:rfc5280_date
      (fun ctx ->
        emit Should_not
          (List.filter_map
             (fun (v : Ctx.aval) ->
               if v.Ctx.a_st = Asn1.Str_type.Universal_string then
                 Some (X509.Attr.name v.Ctx.a_attr ^ " uses UniversalString")
               else None)
             (subject_values ctx)));
    mk ~name:"e_utf8string_invalid_byte_sequence"
      ~description:
        "UTF8String payloads (DN values and policy explicitText) must be \
         well-formed UTF-8."
      ~source:Rfc5280 ~level:Must ~nc_type:Invalid_encoding ~effective:rfc5280_date
      (fun ctx ->
        let dn_issues =
          List.filter_map
            (fun (v : Ctx.aval) ->
              (* ASCII-only payloads are trivially well-formed *)
              if v.Ctx.a_st = Asn1.Str_type.Utf8_string && v.Ctx.a_has_hi
                 && not (Unicode.Codec.well_formed_utf8 v.Ctx.a_raw)
              then
                Some (X509.Attr.name v.Ctx.a_attr ^ " UTF8String is not well-formed UTF-8")
              else None)
            (all_values ctx)
        in
        let policy_issues =
          List.filter_map
            (fun (st, raw) ->
              if st = Asn1.Str_type.Utf8_string
                 && not (Unicode.Codec.well_formed_utf8 raw)
              then Some "explicitText UTF8String is not well-formed UTF-8"
              else None)
            (explicit_texts ctx)
        in
        emit Must (dn_issues @ policy_issues));
    mk ~name:"e_bmpstring_odd_number_of_bytes"
      ~description:"BMPString payloads must be an even number of octets."
      ~source:X680 ~level:Must ~nc_type:Invalid_encoding ~effective:rfc5280_date
      (fun ctx ->
        emit Must
          (List.filter_map
             (fun (v : Ctx.aval) ->
               if v.Ctx.a_st = Asn1.Str_type.Bmp_string && String.length v.Ctx.a_raw mod 2 = 1
               then Some (X509.Attr.name v.Ctx.a_attr ^ " BMPString has odd length")
               else None)
             (all_values ctx)));
    (* ------------------------------------------------------------------
       New lints: subject DirectoryString encodings (14) *)
    not_printable_or_utf8 "e_subject_common_name_not_printable_or_utf8"
      X509.Attr.Common_name;
    not_printable_or_utf8 "e_subject_organization_not_printable_or_utf8"
      X509.Attr.Organization_name;
    not_printable_or_utf8 "e_subject_ou_not_printable_or_utf8"
      X509.Attr.Organizational_unit_name;
    not_printable_or_utf8 "e_subject_locality_not_printable_or_utf8"
      X509.Attr.Locality_name;
    not_printable_or_utf8 "e_subject_state_not_printable_or_utf8"
      X509.Attr.State_or_province_name;
    not_printable_or_utf8 "e_subject_street_not_printable_or_utf8"
      X509.Attr.Street_address;
    not_printable_or_utf8 "e_subject_postal_code_not_printable_or_utf8"
      X509.Attr.Postal_code;
    not_printable_or_utf8 "e_subject_given_name_not_printable_or_utf8"
      X509.Attr.Given_name;
    not_printable_or_utf8 "e_subject_surname_not_printable_or_utf8" X509.Attr.Surname;
    not_printable_or_utf8 "e_subject_business_category_not_printable_or_utf8"
      X509.Attr.Business_category;
    not_printable_or_utf8 "e_subject_title_not_printable_or_utf8" X509.Attr.Title;
    not_printable_or_utf8 "e_subject_jurisdiction_locality_not_printable_or_utf8"
      X509.Attr.Jurisdiction_locality;
    not_printable_or_utf8 "e_subject_jurisdiction_state_not_printable_or_utf8"
      X509.Attr.Jurisdiction_state;
    attr_encoding_lint ~name:"e_subject_jurisdiction_country_not_printable"
      ~attr:X509.Attr.Jurisdiction_country ~in_issuer:false
      ~allowed:[ Asn1.Str_type.Printable_string ] ~source:Cab_br ~level:Must
      ~is_new:true ~effective:cab_br_date
      ~description:"jurisdictionCountryName must be a PrintableString (CA/B EVG)." ;
    (* Issuer-side encodings (3) *)
    attr_encoding_lint ~name:"e_issuer_common_name_not_printable_or_utf8"
      ~attr:X509.Attr.Common_name ~in_issuer:true ~allowed:printable_or_utf8
      ~source:Cab_br ~level:Must ~is_new:true ~effective:cab_br_date
      ~description:"Issuer commonName must be PrintableString or UTF8String." ;
    attr_encoding_lint ~name:"e_issuer_organization_not_printable_or_utf8"
      ~attr:X509.Attr.Organization_name ~in_issuer:true ~allowed:printable_or_utf8
      ~source:Cab_br ~level:Must ~is_new:true ~effective:cab_br_date
      ~description:"Issuer organizationName must be PrintableString or UTF8String." ;
    attr_encoding_lint ~name:"e_issuer_country_not_printable"
      ~attr:X509.Attr.Country_name ~in_issuer:true
      ~allowed:[ Asn1.Str_type.Printable_string ] ~source:Rfc5280 ~level:Must
      ~is_new:true ~effective:rfc5280_date
      ~description:"Issuer countryName must be a PrintableString." ;
    (* GeneralName IA5 payloads (7) *)
    gn_ia5_lint ~name:"e_ext_san_dnsname_not_ia5" ~what:"SAN dNSName"
      ~keep:(function X509.General_name.Dns_name _ -> true | _ -> false)
      ~over:over_san ~effective:rfc5280_date ~is_new:true ();
    gn_ia5_lint ~name:"e_ext_san_rfc822_not_ia5" ~what:"SAN rfc822Name"
      ~keep:(function X509.General_name.Rfc822_name _ -> true | _ -> false)
      ~over:over_san ~effective:rfc5280_date ~is_new:true ();
    gn_ia5_lint ~name:"e_ext_san_uri_not_ia5" ~what:"SAN URI"
      ~keep:(function X509.General_name.Uri _ -> true | _ -> false)
      ~over:over_san ~effective:rfc5280_date ~is_new:true ();
    gn_ia5_lint ~name:"e_ext_ian_name_not_ia5" ~what:"IssuerAltName"
      ~over:(fun f ctx -> List.concat_map f (ian_names ctx))
      ~effective:rfc5280_date ~is_new:true ();
    gn_ia5_lint ~name:"e_ext_crldp_uri_not_ia5" ~what:"CRLDistributionPoints"
      ~over:(fun f ctx -> List.concat_map f (crldp_list ctx))
      ~effective:rfc5280_date ~is_new:true ();
    gn_ia5_lint ~name:"e_ext_aia_location_not_ia5" ~what:"AIA accessLocation"
      ~over:aia_details ~effective:rfc5280_date ~is_new:true ();
    gn_ia5_lint ~name:"e_ext_sia_location_not_ia5" ~what:"SIA accessLocation"
      ~over:sia_details ~effective:rfc5280_date ~is_new:true ();
    (* Unicode instead of Punycode (2) *)
    mk ~name:"e_ext_san_dns_unicode_not_punycode"
      ~description:
        "Internationalized names in SAN dNSName must be A-labels, not raw \
         UTF-8 U-labels (RFC 5280 §7.2)."
      ~source:Rfc5280 ~level:Must ~nc_type:Invalid_encoding ~is_new:true
      ~effective:rfc5280_date
      (fun ctx ->
        emit Must
          (List.filter_map
             (fun gn ->
               match gn with
               | X509.General_name.Dns_name s
                 when non_ia5 s <> [] && Unicode.Codec.well_formed_utf8 s ->
                   Some (Printf.sprintf "dNSName %S carries a raw U-label" s)
               | _ -> None)
             (san_names ctx)));
    mk ~name:"e_subject_cn_dns_unicode_not_punycode"
      ~description:
        "Domain names in the subject CN must use A-labels for IDNs (CA/B BR)."
      ~source:Cab_br ~level:Must ~nc_type:Invalid_encoding ~is_new:true
      ~effective:cab_br_date
      (fun ctx ->
        emit Must
          (List.filter_map
             (fun (v : Ctx.aval) ->
               if
                 v.Ctx.a_attr <> X509.Attr.Common_name
                 || v.Ctx.a_mask land Unicode.Props.m_nonascii = 0
               then None
               else
                 let text = Unicode.Codec.utf8_of_cps v.Ctx.a_cps in
                 if String.contains text '.' && not (String.contains text ' ') then
                   Some (Printf.sprintf "CN %S carries a raw U-label domain" text)
                 else None)
             (subject_values ctx)));
    (* Physical payload checks (11) *)
    mk ~name:"e_bmpstring_utf16_surrogate_pairs"
      ~description:
        "BMPString is UCS-2; UTF-16 surrogate pairs (astral characters) are \
         not representable (X.680)."
      ~source:X680 ~level:Must ~nc_type:Invalid_encoding ~is_new:true
      ~effective:rfc5280_date
      (fun ctx ->
        emit Must
          (List.filter_map
             (fun (v : Ctx.aval) ->
               if v.Ctx.a_st <> Asn1.Str_type.Bmp_string then None
               else
                 let raw = v.Ctx.a_raw in
                 let has_pair = ref false in
                 let i = ref 0 in
                 while !i + 3 < String.length raw do
                   let u = (Char.code raw.[!i] lsl 8) lor Char.code raw.[!i + 1] in
                   let u2 = (Char.code raw.[!i + 2] lsl 8) lor Char.code raw.[!i + 3] in
                   if u >= 0xD800 && u <= 0xDBFF && u2 >= 0xDC00 && u2 <= 0xDFFF then
                     has_pair := true;
                   i := !i + 2
                 done;
                 if !has_pair then
                   Some (X509.Attr.name v.Ctx.a_attr ^ " BMPString contains UTF-16 surrogate pairs")
                 else None)
             (all_values ctx)));
    mk ~name:"e_universalstring_bad_length"
      ~description:"UniversalString payloads must be a multiple of 4 octets."
      ~source:X680 ~level:Must ~nc_type:Invalid_encoding ~is_new:true
      ~effective:rfc5280_date
      (fun ctx ->
        emit Must
          (List.filter_map
             (fun (v : Ctx.aval) ->
               if v.Ctx.a_st = Asn1.Str_type.Universal_string
                  && String.length v.Ctx.a_raw mod 4 <> 0
               then
                 Some (X509.Attr.name v.Ctx.a_attr ^ " UniversalString length not a multiple of 4")
               else None)
             (all_values ctx)));
    mk ~name:"e_universalstring_invalid_code_point"
      ~description:"UniversalString units must be valid Unicode code points."
      ~source:X680 ~level:Must ~nc_type:Invalid_encoding ~is_new:true
      ~effective:rfc5280_date
      (fun ctx ->
        emit Must
          (List.filter_map
             (fun (v : Ctx.aval) ->
               if v.Ctx.a_st <> Asn1.Str_type.Universal_string then None
               else
                 match Unicode.Codec.decode Unicode.Codec.Ucs4 v.Ctx.a_raw with
                 | Ok _ -> None
                 | Error _ ->
                     Some (X509.Attr.name v.Ctx.a_attr ^ " UniversalString has invalid units"))
             (all_values ctx)));
    mk ~name:"w_teletexstring_escape_sequences"
      ~description:
        "TeletexString escape sequences are interpreted inconsistently and \
         should be avoided."
      ~source:Community ~level:Should_not ~nc_type:Invalid_encoding ~is_new:true
      ~effective:community_date
      (fun ctx ->
        emit Should_not
          (List.filter_map
             (fun (v : Ctx.aval) ->
               if v.Ctx.a_st = Asn1.Str_type.Teletex_string
                  && String.contains v.Ctx.a_raw '\x1B'
               then
                 Some (X509.Attr.name v.Ctx.a_attr ^ " TeletexString contains escape sequences")
               else None)
             (all_values ctx)));
    utf8_pattern_lint ~name:"e_utf8string_overlong_encoding"
      ~description:"UTF-8 must use shortest-form encodings (X.690)."
      ~is_new:true ~level:Must ~source:X680 ~effective:rfc5280_date overlong_sequences;
    utf8_pattern_lint ~name:"e_utf8string_encodes_surrogates"
      ~description:"UTF-8 must not encode surrogate code points (CESU-8)."
      ~is_new:true ~level:Must ~source:X680 ~effective:rfc5280_date surrogate_sequences;
    mk ~name:"w_utf8string_noncharacters"
      ~description:"UTF8String values should not contain Unicode noncharacters."
      ~source:Rfc9549 ~level:Should_not ~nc_type:Invalid_encoding ~is_new:true
      ~effective:rfc8399_date
      (fun ctx ->
        emit Should_not
          (List.concat_map
             (fun (v : Ctx.aval) ->
               if
                 v.Ctx.a_st <> Asn1.Str_type.Utf8_string
                 || v.Ctx.a_mask land Unicode.Props.m_noncharacter = 0
               then []
               else
                 Array.to_list v.Ctx.a_cps
                 |> List.filter Unicode.Props.is_noncharacter
                 |> List.map (fun cp ->
                        Printf.sprintf "%s contains noncharacter %s"
                          (X509.Attr.name v.Ctx.a_attr) (describe_cp cp)))
             (all_values ctx)));
    mk ~name:"w_ext_cp_explicit_text_bmp"
      ~description:"explicitText SHOULD NOT use BMPString (RFC 5280 §4.2.1.4)."
      ~source:Rfc5280 ~level:Should_not ~nc_type:Invalid_encoding ~is_new:true
      ~effective:rfc5280_date
      (fun ctx ->
        let texts = explicit_texts ctx in
        if texts = [] then Na
        else
          emit Should_not
            (List.filter_map
               (fun (st, _) ->
                 if st = Asn1.Str_type.Bmp_string then Some "explicitText is BMPString"
                 else None)
               texts));
    mk ~name:"e_ext_san_othername_smtputf8_not_utf8"
      ~description:"SmtpUTF8Mailbox otherName must be a UTF8String (RFC 9598)."
      ~source:Rfc9598 ~level:Must ~nc_type:Invalid_encoding ~is_new:true
      ~effective:rfc9598_date
      (fun ctx ->
        emit Must
          (List.filter_map
             (fun gn ->
               match gn with
               | X509.General_name.Other_name (oid, raw)
                 when Asn1.Oid.equal oid smtputf8_oid ->
                   if not (Unicode.Codec.well_formed_utf8 raw) then
                     Some "SmtpUTF8Mailbox is not valid UTF-8"
                   else None
               | _ -> None)
             (san_names ctx)));
    mk ~name:"w_subject_attr_mixed_encodings"
      ~description:
        "Repeated subject attributes should use a consistent string type; \
         mixed encodings hinder matching."
      ~source:Community ~level:Should_not ~nc_type:Invalid_encoding ~is_new:true
      ~effective:community_date
      (fun ctx ->
        let values = subject_values ctx in
        (* The table only on a hit: its fold order fixes the detail
           order. *)
        if not (mixed_encodings values) then Pass
        else begin
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun (v : Ctx.aval) ->
              let prev = try Hashtbl.find tbl v.Ctx.a_attr with Not_found -> [] in
              Hashtbl.replace tbl v.Ctx.a_attr (v.Ctx.a_st :: prev))
            values;
          let bad =
            Hashtbl.fold
              (fun attr sts acc ->
                if List.length (List.sort_uniq Stdlib.compare sts) > 1 then
                  (X509.Attr.name attr ^ " uses mixed string types") :: acc
                else acc)
              tbl []
          in
          emit Should_not bad
        end);
    mk ~name:"e_rfc822name_domain_unicode_not_punycode"
      ~description:
        "The domain part of rfc822Name must use A-labels for IDNs (RFC 9598)."
      ~source:Rfc9598 ~level:Must ~nc_type:Invalid_encoding ~is_new:true
      ~effective:rfc9598_date
      (fun ctx ->
        emit Must
          (List.filter_map
             (fun gn ->
               match gn with
               | X509.General_name.Rfc822_name s -> (
                   match String.rindex_opt s '@' with
                   | Some i ->
                       let domain = String.sub s (i + 1) (String.length s - i - 1) in
                       if non_ia5 domain <> [] then
                         Some (Printf.sprintf "rfc822Name domain %S is not ASCII" domain)
                       else None
                   | None -> None)
               | _ -> None)
             (san_names ctx)));
  ]
