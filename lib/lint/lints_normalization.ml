(* T2 — Bad Normalization lints (paper §4.3.1): NFC and canonical-form
   requirements.  4 lints, 3 new.  NFC results and per-A-label IDNA
   round-trips come precomputed from the fact table (Ctx). *)

open Types
open Helpers

(* Flag every A-label whose cached issue list contains [issue]. *)
let alabel_issue_lint ~name ~description ~source ~effective ~issue ~fmt =
  let bad (l, issues) =
    if List.mem issue issues then Some (Printf.sprintf fmt l) else None
  in
  let bad_labels fact = List.filter_map bad fact.Ctx.d_alabels in
  mk ~name ~description ~source ~level:Must ~nc_type:Bad_normalization ~is_new:true
    ~effective
    (fun ctx -> emit Must (List.concat_map bad_labels ctx.Ctx.dns_facts))

let lints : Types.t list =
  [
    mk ~name:"w_rfc_utf8_string_not_nfc"
      ~description:
        "UTF8String attribute values SHOULD be normalized to Unicode \
         Normalization Form C (RFC 5280 via RFC 4518/TR15)."
      ~source:Rfc5280 ~level:Should ~nc_type:Bad_normalization ~effective:rfc5280_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun (v : Ctx.aval) ->
              if v.Ctx.a_st = Asn1.Str_type.Utf8_string && not v.Ctx.a_nfc then
                Some (X509.Attr.name v.Ctx.a_attr ^ " UTF8String is not NFC")
              else None)
            (all_values ctx)
        in
        emit Should bad);
    alabel_issue_lint ~name:"e_rfc_dns_idn_not_nfc"
      ~description:
        "The Unicode form of an IDN label must be NFC-normalized; A-labels \
         whose decoding is not NFC cannot round-trip between forms."
      ~source:Rfc8399 ~effective:rfc8399_date ~issue:Idna.Not_nfc
      ~fmt:"label %S decodes to a non-NFC string";
    alabel_issue_lint ~name:"e_rfc_dns_idn_noncanonical_alabel"
      ~description:
        "A-labels must be the canonical Punycode encoding of their U-label \
         (decode-then-re-encode must reproduce the label)."
      ~source:Rfc5890 ~effective:idna2008_date ~issue:Idna.Non_canonical_alabel
      ~fmt:"label %S is not canonical Punycode";
    mk ~name:"e_ext_san_smtputf8_mailbox_not_nfc"
      ~description:
        "SmtpUTF8Mailbox otherName local parts must be NFC-normalized \
         (RFC 9598)."
      ~source:Rfc9598 ~level:Must ~nc_type:Bad_normalization ~is_new:true
      ~effective:rfc9598_date
      (fun ctx ->
        let bad =
          List.filter_map
            (fun gn ->
              match gn with
              | X509.General_name.Other_name (oid, raw)
                when Asn1.Oid.equal oid smtputf8_oid ->
                  if not (Unicode.Normalize.utf8_is_nfc raw) then
                    Some "SmtpUTF8Mailbox is not NFC"
                  else None
              | _ -> None)
            (san_names ctx)
        in
        emit Must bad);
  ]
