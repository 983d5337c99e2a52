(* T1 — Invalid Character lints: weak character-range validation in
   certificate fields (paper §4.3.1).  22 lints, 10 of them the paper's
   new Unicode-specific checks.

   Each lint guards on the per-value property mask (Ctx.aval.a_mask)
   before walking code points: the mask ORs every class bit present in
   the value, so a zero [land] proves no code point can match and the
   walk — and its allocations — are skipped entirely.  Per-value check
   functions are built once, when the lint is made, so a clean pass
   allocates nothing. *)

open Types
open Helpers

let subject_control_chars name description ~bits ~pred ~level ~source ~is_new
    ~effective =
  let bad (v : Ctx.aval) =
    if v.Ctx.a_mask land bits = 0 then []
    else
      Array.to_list v.Ctx.a_cps
      |> List.filter pred
      |> List.map (fun cp ->
             Printf.sprintf "%s contains %s" (X509.Attr.name v.Ctx.a_attr)
               (describe_cp cp))
  in
  mk ~name ~description ~source ~level ~nc_type:Invalid_character ~is_new ~effective
    (fun ctx -> emit level (List.concat_map bad (subject_values ctx)))

let dnsname_lint name description ~source ~level ~is_new ~effective check =
  mk ~name ~description ~source ~level ~nc_type:Invalid_character ~is_new ~effective
    (fun ctx -> emit level (List.concat_map check ctx.Ctx.dns_facts))

(* Values declared [st] must not hold a code point failing [pred];
   a value's code points are walked only when the mask says [bits]
   occur. *)
let charset_lint ~name ~description ~source ~is_new ~effective ~st ~bits ~pred =
  let st_name = Asn1.Str_type.name st in
  let bad (v : Ctx.aval) =
    if v.Ctx.a_st <> st || v.Ctx.a_mask land bits = 0 then []
    else
      Array.to_list v.Ctx.a_cps
      |> List.filter pred
      |> List.map (fun cp ->
             Printf.sprintf "%s %s contains %s" (X509.Attr.name v.Ctx.a_attr) st_name
               (describe_cp cp))
  in
  mk ~name ~description ~source ~level:Must ~nc_type:Invalid_character ~is_new
    ~effective
    (fun ctx -> emit Must (List.concat_map bad (all_values ctx)))

(* The details of a URI holding bytes [bad_byte] accepts, in
   [report]'s wording; only a URI with a hit is walked twice. *)
let uri_byte_details ~bad_byte ~report gn =
  match gn with
  | X509.General_name.Uri s when exists_byte bad_byte s ->
      let issues = ref [] in
      String.iteri
        (fun i c -> if bad_byte c then issues := report s i (Char.code c) :: !issues)
        s;
      List.rev !issues
  | _ -> []

let san_uri_details =
  uri_byte_details
    ~bad_byte:(fun c -> Char.code c <= 0x20 || Char.code c >= 0x7F)
    ~report:(fun s _ b -> Printf.sprintf "URI %S contains byte 0x%02X" s b)

let crldp_uri_details =
  uri_byte_details
    ~bad_byte:(fun c -> Char.code c < 0x20 || Char.code c = 0x7F)
    ~report:(fun _ i b -> Printf.sprintf "CRLDP URI control byte 0x%02X at %d" b i)

(* Latin-1 decoding maps each byte to the code point of the same value,
   so the SAN dNSName scan runs over the raw bytes first. *)
let dns_unpermitted cp =
  cp > 0x7F || Unicode.Props.is_c0_control cp || Unicode.Props.is_del cp

let dns_unpermitted_details gn =
  match gn with
  | X509.General_name.Dns_name s when exists_byte (fun c -> dns_unpermitted (Char.code c)) s
    ->
      Array.to_list (Unicode.Codec.cps_of_latin1 s)
      |> List.filter dns_unpermitted
      |> List.map (fun cp -> Printf.sprintf "dNSName %S contains %s" s (describe_cp cp))
  | _ -> []

let lints : Types.t list =
  [
    (* ------------------------------------------------------------------
       Established lints (12) *)
    subject_control_chars "e_rfc_subject_dn_not_printable_characters"
      "Subject DN values must not contain non-printable control characters \
       (NUL, ESC, DEL, other C0 codes)."
      ~bits:(Unicode.Props.m_c0 lor Unicode.Props.m_del)
      ~pred:(fun cp -> Unicode.Props.is_c0_control cp || Unicode.Props.is_del cp)
      ~level:Must ~source:Community ~is_new:false ~effective:community_date;
    charset_lint ~name:"e_rfc_subject_printable_string_badalpha"
      ~description:
        "Values declared PrintableString must stay within the PrintableString \
         repertoire (RFC 5280 via X.680)."
      ~source:Rfc5280 ~is_new:false ~effective:rfc5280_date
      ~st:Asn1.Str_type.Printable_string ~bits:Unicode.Props.m_not_printable
      ~pred:(fun cp -> not (Unicode.Props.is_printable_string_char cp));
    mk ~name:"w_community_subject_dn_trailing_whitespace"
      ~description:"Subject DN values should not end with whitespace."
      ~source:Community ~level:Should_not ~nc_type:Invalid_character
      ~effective:community_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun (v : Ctx.aval) ->
              let cps = v.Ctx.a_cps in
              let n = Array.length cps in
              if n > 0 && Unicode.Props.is_whitespace cps.(n - 1) then
                Some (X509.Attr.name v.Ctx.a_attr ^ " has trailing whitespace")
              else None)
            (subject_values ctx)
        in
        emit Should_not bad);
    mk ~name:"w_community_subject_dn_leading_whitespace"
      ~description:"Subject DN values should not start with whitespace."
      ~source:Community ~level:Should_not ~nc_type:Invalid_character
      ~effective:community_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun (v : Ctx.aval) ->
              let cps = v.Ctx.a_cps in
              if Array.length cps > 0 && Unicode.Props.is_whitespace cps.(0) then
                Some (X509.Attr.name v.Ctx.a_attr ^ " has leading whitespace")
              else None)
            (subject_values ctx)
        in
        emit Should_not bad);
    dnsname_lint "e_rfc_dns_idn_malformed_unicode"
      "IDN A-labels in DNSNames must decode to Unicode via Punycode."
      ~source:Rfc8399 ~level:Must ~is_new:false ~effective:rfc8399_date
      (fun fact ->
        List.filter_map
          (fun (l, issues) ->
            match
              List.find_opt
                (function Idna.Malformed_punycode _ -> true | _ -> false)
                issues
            with
            | Some (Idna.Malformed_punycode m) ->
                Some (Printf.sprintf "label %S: %s" l m)
            | _ -> None)
          fact.Ctx.d_alabels);
    dnsname_lint "e_cab_dns_bad_character_in_label"
      "DNSName labels must use only letters, digits and hyphens."
      ~source:Cab_br ~level:Must ~is_new:false ~effective:cab_br_date
      (fun fact ->
        fact.Ctx.d_dns
        |> List.filter_map (function
             | Idna.Dns.Bad_character (l, cp) when cp < 0x80 ->
                 Some (Printf.sprintf "label %S contains %s" l (describe_cp cp))
             | _ -> None));
    mk ~name:"e_ia5string_contains_non_ia5"
      ~description:"IA5String values must contain only 7-bit characters."
      ~source:Rfc5280 ~level:Must ~nc_type:Invalid_character ~effective:rfc5280_date
      (fun ctx ->
        let bad =
          List.concat_map
            (fun (v : Ctx.aval) ->
              if v.Ctx.a_st <> Asn1.Str_type.Ia5_string || not v.Ctx.a_has_hi then []
              else
                non_ia5 v.Ctx.a_raw
                |> List.map (fun b ->
                       Printf.sprintf "%s IA5String contains byte 0x%02X"
                         (X509.Attr.name v.Ctx.a_attr) b))
            (all_values ctx)
        in
        emit Must bad);
    dnsname_lint "e_dnsname_contains_whitespace"
      "DNSNames must not contain whitespace."
      ~source:Cab_br ~level:Must ~is_new:false ~effective:cab_br_date
      (fun fact ->
        let name = fact.Ctx.d_name in
        if exists_byte (fun c -> c = ' ' || c = '\t') name then
          [ Printf.sprintf "%S contains whitespace" name ]
        else []);
    charset_lint ~name:"e_numeric_string_invalid_characters"
      ~description:"NumericString values allow only digits and space (X.680)."
      ~source:X680 ~is_new:false ~effective:rfc5280_date
      ~st:Asn1.Str_type.Numeric_string ~bits:Unicode.Props.m_not_numeric
      ~pred:(fun cp -> not (Unicode.Props.is_numeric_string_char cp));
    charset_lint ~name:"e_visible_string_invalid_characters"
      ~description:"VisibleString values allow only printable ASCII (X.680)."
      ~source:X680 ~is_new:false ~effective:rfc5280_date
      ~st:Asn1.Str_type.Visible_string ~bits:Unicode.Props.m_not_visible
      ~pred:(fun cp -> not (Unicode.Props.is_visible_string_char cp));
    subject_control_chars "w_subject_dn_del_character"
      "Subject DN values should not contain the DEL (U+007F) character."
      ~bits:Unicode.Props.m_del ~pred:Unicode.Props.is_del ~level:Should_not
      ~source:Community ~is_new:false ~effective:community_date;
    mk ~name:"e_san_rfc822_name_invalid_ascii"
      ~description:"rfc822Name values must be 7-bit ASCII mailboxes (RFC 5280)."
      ~source:Rfc5280 ~level:Must ~nc_type:Invalid_character ~effective:rfc5280_date
      (fun ctx ->
        let bad gn =
          match gn with
          | X509.General_name.Rfc822_name s ->
              non_ia5 s |> List.map (fun b -> Printf.sprintf "rfc822Name byte 0x%02X" b)
          | _ -> []
        in
        emit Must
          (List.concat_map bad (san_names ctx) @ List.concat_map bad (ian_names ctx)));
    (* ------------------------------------------------------------------
       New Unicode-specific lints (10) *)
    dnsname_lint "e_rfc_dns_idn_a2u_unpermitted_unichar"
      "A-labels must decode to U-labels containing only IDNA2008-permitted \
       code points."
      ~source:Idna2008 ~level:Must ~is_new:true ~effective:idna2008_date
      (fun fact ->
        List.concat_map
          (fun (l, issues) ->
            if issues = [] then []
            else
              issues
              |> List.filter_map (function
                   | Idna.Unpermitted_char cp ->
                       Some
                         (Printf.sprintf "label %S decodes to unpermitted %s" l
                            (describe_cp cp))
                   | Idna.Bidi_violation ->
                       Some (Printf.sprintf "label %S violates the Bidi rule" l)
                   | _ -> None))
          fact.Ctx.d_alabels);
    mk ~name:"e_ext_san_dns_contain_unpermitted_unichar"
      ~description:
        "SAN DNSNames must not carry raw non-ASCII or disallowed characters; \
         internationalized labels must be A-labels."
      ~source:Rfc8399 ~level:Must ~nc_type:Invalid_character ~is_new:true
      ~effective:rfc8399_date
      (fun ctx -> emit Must (List.concat_map dns_unpermitted_details (san_names ctx)));
    charset_lint ~name:"e_utf8string_control_characters"
      ~description:"UTF8String DN values must not contain C0/C1 control codes."
      ~source:Rfc9549 ~is_new:true ~effective:rfc8399_date
      ~st:Asn1.Str_type.Utf8_string ~bits:Unicode.Props.m_control
      ~pred:Unicode.Props.is_control;
    subject_control_chars "w_subject_dn_bidi_controls"
      "Subject DN values should not contain bidirectional control characters."
      ~bits:Unicode.Props.m_bidi ~pred:Unicode.Props.is_bidi_control
      ~level:Should_not ~source:Rfc9549 ~is_new:true ~effective:community_date;
    subject_control_chars "w_subject_dn_invisible_characters"
      "Subject DN values should not contain invisible layout characters \
       (zero-width spaces/joiners, non-ASCII whitespace)."
      ~bits:Unicode.Props.m_invisible ~pred:Unicode.Props.is_invisible
      ~level:Should_not ~source:Community ~is_new:true ~effective:community_date;
    mk ~name:"e_bmpstring_surrogate"
      ~description:"BMPString must not contain surrogate code units (X.680)."
      ~source:X680 ~level:Must ~nc_type:Invalid_character ~is_new:true
      ~effective:rfc5280_date
      (fun ctx ->
        let bad =
          List.concat_map
            (fun (v : Ctx.aval) ->
              if
                v.Ctx.a_st <> Asn1.Str_type.Bmp_string
                || v.Ctx.a_mask land Unicode.Props.m_surrogate = 0
              then []
              else
                Array.to_list v.Ctx.a_cps
                |> List.filter Unicode.Cp.is_surrogate
                |> List.map (fun cp ->
                       Printf.sprintf "%s BMPString contains surrogate %s"
                         (X509.Attr.name v.Ctx.a_attr) (describe_cp cp)))
            (all_values ctx)
        in
        emit Must bad);
    mk ~name:"e_san_uri_invalid_characters"
      ~description:
        "URI GeneralNames must not contain spaces, control characters or raw \
         non-ASCII bytes (IRIs must be percent-encoded/punycoded)."
      ~source:Rfc5280 ~level:Must ~nc_type:Invalid_character ~is_new:true
      ~effective:rfc5280_date
      (fun ctx ->
        emit Must
          (List.concat_map san_uri_details (san_names ctx)
          @ sia_details san_uri_details ctx));
    mk ~name:"e_ext_ian_dns_invalid_characters"
      ~description:"IssuerAltName DNSNames must use only LDH characters."
      ~source:Cab_br ~level:Must ~nc_type:Invalid_character ~is_new:true
      ~effective:cab_br_date
      (fun ctx ->
        let bad =
          List.concat_map
            (fun gn ->
              match gn with
              | X509.General_name.Dns_name s ->
                  Idna.Dns.check s
                  |> List.filter_map (function
                       | Idna.Dns.Bad_character (l, cp) ->
                           Some
                             (Printf.sprintf "IAN label %S contains %s" l (describe_cp cp))
                       | _ -> None)
              | _ -> [])
            (ian_names ctx)
        in
        emit Must bad);
    subject_control_chars "w_subject_dn_replacement_character"
      "Subject DN values should not contain U+FFFD, which indicates a broken \
       transcoding step at issuance."
      ~bits:Unicode.Props.m_replacement ~pred:(fun cp -> cp = 0xFFFD)
      ~level:Should_not ~source:Community ~is_new:true ~effective:community_date;
    mk ~name:"e_crldp_uri_control_characters"
      ~description:
        "CRLDistributionPoints URIs must not contain control characters (which \
         lenient parsers rewrite into different addresses)."
      ~source:Rfc5280 ~level:Must ~nc_type:Invalid_character ~is_new:true
      ~effective:rfc5280_date
      (fun ctx -> emit Must (List.concat_map crldp_uri_details (crldp_list ctx)));
  ]
