type atv_info = {
  atv : X509.Dn.atv;
  cps : Unicode.Cp.t array option;
  lenient_cps : Unicode.Cp.t array;
  in_issuer : bool;
}

(* Derived-fact record for one string-typed ATV.  Everything the lints
   test repeatedly — property classes, raw byte classes, NFC — is
   resolved once here, so the 95 lints reduce to bitmask checks over
   these records. *)
type aval = {
  a_attr : X509.Attr.t;
  a_st : Asn1.Str_type.t;
  a_raw : string;
  a_cps : Unicode.Cp.t array;  (* lenient decoding *)
  a_mask : int;  (* OR of [Unicode.Props.mask] over [a_cps] *)
  a_has_hi : bool;  (* any raw byte >= 0x80 *)
  a_nfc : bool;  (* NFC check result; [true] for non-UTF8String values *)
}

(* Derived facts for one DNS name (SAN dNSName or DNS-shaped subject
   CN): the label split, the RFC 1034/CA-B checks and the per-A-label
   IDNA round-trip issues, each computed once instead of once per
   consuming lint. *)
type dns_fact = {
  d_name : string;
  d_labels : string list;
  d_dns : Idna.Dns.issue list;  (* [Idna.Dns.check d_name] *)
  d_alabels : (string * Idna.issue list) list;
      (* xn-- labels with their [Idna.alabel_issues] *)
}

type general_names = X509.General_name.t list

type t = {
  cert : X509.Certificate.t;
  subject : atv_info list;
  subject_vals : aval list;
  issuer_vals : aval list;
  all_vals : aval list;  (* [subject_vals @ issuer_vals], precomputed *)
  dns_facts : dns_fact list;
  san : (general_names, string) result option;
  ian : (general_names, string) result option;
  crldp_names : (general_names, string) result option;
  aia : ((Asn1.Oid.t * X509.General_name.t) list, string) result option;
  sia : ((Asn1.Oid.t * X509.General_name.t) list, string) result option;
  policies : (X509.Extension.policy list, string) result option;
  etexts : (Asn1.Str_type.t * string) list;
      (* CertificatePolicies userNotice explicitText values *)
}

let atv_info ~in_issuer (atv : X509.Dn.atv) =
  match atv.X509.Dn.value with
  | Asn1.Value.Str (st, raw) -> (
      (* One decode in the common case: a successful strict decode is
         exactly what replacement decoding would produce, so the two
         views share the array.  Only malformed payloads pay a second,
         lenient pass. *)
      match Asn1.Str_type.decode_value st raw with
      | Ok cps -> { atv; cps = Some cps; lenient_cps = cps; in_issuer }
      | Error _ ->
          let lenient_cps =
            match
              Unicode.Codec.decode ~policy:(Unicode.Codec.Replace 0xFFFD)
                (Asn1.Str_type.standard_encoding st) raw
            with
            | Ok cps -> cps
            | Error _ -> Unicode.Codec.cps_of_latin1 raw
          in
          { atv; cps = None; lenient_cps; in_issuer })
  | _ -> { atv; cps = None; lenient_cps = [||]; in_issuer }

let cps_mask cps =
  let m = ref 0 in
  for i = 0 to Array.length cps - 1 do
    m := !m lor Unicode.Props.mask (Array.unsafe_get cps i)
  done;
  !m

let has_hi_byte raw =
  let n = String.length raw in
  let rec go i = i < n && (Char.code (String.unsafe_get raw i) >= 0x80 || go (i + 1)) in
  go 0

let aval_of_info (info : atv_info) =
  match info.atv.X509.Dn.value with
  | Asn1.Value.Str (st, raw) ->
      let cps = info.lenient_cps in
      Some
        {
          a_attr = info.atv.X509.Dn.typ;
          a_st = st;
          a_raw = raw;
          a_cps = cps;
          a_mask = cps_mask cps;
          a_has_hi = has_hi_byte raw;
          a_nfc =
            (if st = Asn1.Str_type.Utf8_string then Unicode.Normalize.is_nfc cps
             else true);
        }
  | _ -> None

let dns_fact name =
  let labels = Idna.Dns.split_labels name in
  {
    d_name = name;
    d_labels = labels;
    d_dns = Idna.Dns.check name;
    d_alabels =
      List.filter_map
        (fun l ->
          if Idna.Dns.is_a_label_candidate l then Some (l, Idna.alabel_issues l)
          else None)
        labels;
  }

let ext_payload cert oid parse =
  match X509.Extension.find cert.X509.Certificate.tbs.X509.Certificate.extensions oid with
  | None -> None
  | Some e -> Some (parse e.X509.Extension.value)

let san_dns_of san =
  match san with
  | Some (Ok gns) ->
      List.filter_map (function X509.General_name.Dns_name s -> Some s | _ -> None) gns
  | Some (Error _) | None -> []

let looks_like_dns s =
  s <> ""
  && String.contains s '.'
  && String.for_all (fun c -> Char.code c < 0x80) s
  && not (String.contains s '@')
  && not (String.contains s '/')

(* [looks_like_dns] over code points that encode to themselves: ASCII,
   with a dot, without '@' or '/'. *)
let rec dns_like_cps cps i dot =
  if i = Array.length cps then dot
  else
    let cp = Array.unsafe_get cps i in
    cp >= 0 && cp < 0x80
    && cp <> Char.code '@'
    && cp <> Char.code '/'
    && dns_like_cps cps (i + 1) (dot || cp = Char.code '.')

(* The text of a subject CN that looks like a DNS name.  A value that
   decoded strictly already holds its code points, and DNS-like text is
   ASCII, so its text is those code points as bytes — [X509.Dn.atv_text]
   would decode it again.  Only a malformed value takes that path. *)
let dns_like_cn info =
  match info.cps with
  | Some cps when dns_like_cps cps 0 false ->
      let b = Bytes.create (Array.length cps) in
      for i = 0 to Array.length cps - 1 do
        Bytes.unsafe_set b i (Char.unsafe_chr cps.(i))
      done;
      Some (Bytes.unsafe_to_string b)
  | Some _ -> None
  | None ->
      let text = X509.Dn.atv_text info.atv in
      if looks_like_dns text then Some text else None

let etexts_of policies =
  match policies with
  | Some (Ok policies) ->
      List.filter_map
        (fun (p : X509.Extension.policy) ->
          match p.X509.Extension.notice with
          | Some { X509.Extension.explicit_text = Some (Asn1.Value.Str (st, raw)) } ->
              Some (st, raw)
          | _ -> None)
        policies
  | Some (Error _) | None -> []

let of_cert cert =
  let tbs = cert.X509.Certificate.tbs in
  let subject = List.map (atv_info ~in_issuer:false) (X509.Dn.all_atvs tbs.X509.Certificate.subject) in
  let subject_vals = List.filter_map aval_of_info subject in
  let issuer_vals =
    List.filter_map
      (fun atv -> aval_of_info (atv_info ~in_issuer:true atv))
      (X509.Dn.all_atvs tbs.X509.Certificate.issuer)
  in
  let open X509.Extension in
  let san = ext_payload cert Oids.subject_alt_name parse_general_names in
  let policies = ext_payload cert Oids.certificate_policies parse_certificate_policies in
  let dns_names =
    san_dns_of san
    @ List.filter_map
        (fun info ->
          if info.atv.X509.Dn.typ = X509.Attr.Common_name && not info.in_issuer then
            dns_like_cn info
          else None)
        subject
  in
  {
    cert;
    subject;
    subject_vals;
    issuer_vals;
    all_vals = subject_vals @ issuer_vals;
    dns_facts = List.map dns_fact dns_names;
    san;
    ian = ext_payload cert Oids.issuer_alt_name parse_general_names;
    crldp_names = ext_payload cert Oids.crl_distribution_points parse_crl_distribution_points;
    aia = ext_payload cert Oids.authority_info_access parse_info_access;
    sia = ext_payload cert Oids.subject_info_access parse_info_access;
    policies;
    etexts = etexts_of policies;
  }

let san_dns t = san_dns_of t.san
let dns_names t = List.map (fun f -> f.d_name) t.dns_facts
