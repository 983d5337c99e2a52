type rule = {
  id : string;
  requirement : string;
  source : Types.source;
  citation : string;
  level : Types.level;
  nc_type : Types.nc_type;
  is_new : bool;
  lint : string;
}

(* Section citations for specific lints; the fallback cites the
   source's certificate-profile section. *)
let citations =
  [
    ("e_rfc_ext_cp_explicit_text_too_long", "RFC 5280 §4.2.1.4");
    ("w_rfc_ext_cp_explicit_text_not_utf8", "RFC 5280 §4.2.1.4");
    ("e_rfc_ext_cp_explicit_text_ia5", "RFC 5280 §4.2.1.4");
    ("w_ext_cp_explicit_text_bmp", "RFC 5280 §4.2.1.4");
    ("e_rfc_subject_country_not_printable", "RFC 5280 Appendix A");
    ("e_subject_dn_serial_number_not_printable", "RFC 5280 Appendix A");
    ("e_subject_email_address_not_ia5", "RFC 5280 §4.1.2.6");
    ("e_subject_dc_not_ia5", "RFC 4519 §2.4");
    ("w_subject_dn_uses_teletex_string", "RFC 5280 §4.1.2.4");
    ("w_subject_dn_uses_bmp_string", "RFC 5280 §4.1.2.4");
    ("w_subject_dn_uses_universal_string", "RFC 5280 §4.1.2.4");
    ("e_utf8string_invalid_byte_sequence", "RFC 5280 §4.1.2.4 / RFC 3629");
    ("e_rfc_dns_idn_malformed_unicode", "RFC 8399 §2.2");
    ("e_rfc_dns_idn_a2u_unpermitted_unichar", "RFC 5892 §2");
    ("e_rfc_dns_idn_not_nfc", "RFC 8399 §2.2 / UAX #15");
    ("e_rfc_dns_idn_noncanonical_alabel", "RFC 5890 §2.3.2.1");
    ("e_ext_san_smtputf8_mailbox_not_nfc", "RFC 9598 §3");
    ("e_ext_san_othername_smtputf8_not_utf8", "RFC 9598 §3");
    ("e_rfc822name_domain_unicode_not_punycode", "RFC 9598 §4");
    ("e_ext_san_dns_unicode_not_punycode", "RFC 5280 §7.2");
    ("e_san_rfc822_name_invalid_ascii", "RFC 5280 §4.2.1.6");
    ("e_cab_dns_bad_character_in_label", "CA/B BR 7.1.4.2.1");
    ("w_cab_subject_common_name_not_in_san", "CA/B BR 7.1.4.2.2");
    ("w_cab_subject_contain_extra_common_name", "CA/B BR 7.1.4.2.2");
    ("e_dns_label_too_long", "RFC 1034 §3.1");
    ("e_dns_name_too_long", "RFC 1034 §3.1");
    ("e_dnsname_label_empty", "RFC 1034 §3.5");
    ("e_serial_number_longer_than_20_octets", "RFC 5280 §4.1.2.2");
    ("e_serial_number_not_positive", "RFC 5280 §4.1.2.2");
    ("e_validity_time_wrong_form", "RFC 5280 §4.1.2.5");
    ("e_rfc_subject_printable_string_badalpha", "X.680 §41.4");
    ("e_numeric_string_invalid_characters", "X.680 §41.2");
    ("e_visible_string_invalid_characters", "X.680 §41");
    ("e_bmpstring_surrogate", "X.680 §41 / ISO 10646");
    ("e_bmpstring_odd_number_of_bytes", "X.690 §8.23");
    ("e_bmpstring_utf16_surrogate_pairs", "X.680 §41 / ISO 10646");
    ("e_universalstring_bad_length", "X.690 §8.23");
    ("e_universalstring_invalid_code_point", "X.680 §41 / ISO 10646");
    ("e_utf8string_overlong_encoding", "X.690 §8.23.10 / RFC 3629");
    ("e_utf8string_encodes_surrogates", "RFC 3629 §3");
  ]

let default_citation = function
  | Types.Rfc5280 -> "RFC 5280 §4"
  | Types.Rfc8399 -> "RFC 8399 §2"
  | Types.Rfc9549 -> "RFC 9549 §2"
  | Types.Rfc9598 -> "RFC 9598 §3"
  | Types.Rfc1034 -> "RFC 1034 §3"
  | Types.Rfc5890 -> "RFC 5890 §2"
  | Types.Idna2008 -> "RFC 5891 §4 / RFC 5892"
  | Types.Cab_br -> "CA/B BR §7.1"
  | Types.X680 -> "ITU-T X.680 §41"
  | Types.Community -> "community practice (zlint/certlint)"

let all =
  List.mapi
    (fun i (l : Types.t) ->
      {
        id = Printf.sprintf "R%03d" (i + 1);
        requirement = l.Types.description;
        source = l.Types.source;
        citation =
          (match List.assoc_opt l.Types.name citations with
          | Some c -> c
          | None -> default_citation l.Types.source);
        level = l.Types.level;
        nc_type = l.Types.nc_type;
        is_new = l.Types.is_new;
        lint = l.Types.name;
      })
    Registry.all

let covering_lint name = List.find_opt (fun r -> r.lint = name) all

let render_json ppf r =
  Format.fprintf ppf
    "{\"id\": \"%s\", \"requirement\": %s, \"source\": \"%s\", \"citation\": \
     %s, \"level\": \"%s\", \"type\": \"%s\", \"new\": %b, \"lint\": \"%s\"}"
    r.id (Obs.Jsonv.escape r.requirement)
    (Types.source_name r.source)
    (Obs.Jsonv.escape r.citation)
    (Types.level_name r.level)
    (Types.nc_type_name r.nc_type)
    r.is_new r.lint

let render_catalogue ppf =
  Format.fprintf ppf "[@.";
  List.iteri
    (fun i r ->
      Format.fprintf ppf "  %a%s@." render_json r
        (if i = List.length all - 1 then "" else ","))
    all;
  Format.fprintf ppf "]@."
