type profile = {
  name : string;
  indexes_subject_attrs : bool;
  fuzzy_search : bool;
  unicode_search : bool;
  ulabel_check : bool;
  punycode_ccidn : bool;
  cn_split_slash : bool;
  cn_drop_with_space : bool;
  index_drops_special : bool;
}

type instance = {
  prof : profile;
  mutable entries : (string list * X509.Certificate.t) list;
      (** (index keys, certificate), newest first *)
}

let create prof = { prof; entries = [] }
let has_special s =
  String.exists (fun c -> Char.code c < 0x20 || Char.code c = 0x7F) s

(* A key that is already lowercase is returned as it is, not copied. *)
let fold_key s =
  if String.exists (function 'A' .. 'Z' -> true | _ -> false) s then
    String.lowercase_ascii s
  else s

(* The subject material a monitor indexes, independent of where it came
   from — a parsed certificate or a stored analysis row. *)
type fields = { f_cns : string list; f_sans : string list; f_attrs : string list }

type kind = Cn | San | Attr

(* The unfolded key one subject value derives, or [None] when the
   monitor does not index it.  A value the rule keeps whole is returned
   as it is, not copied. *)
let field_key prof kind v =
  let k =
    match kind with
    | Attr -> if prof.indexes_subject_attrs then Some v else None
    | San -> Some v
    | Cn ->
        if prof.cn_drop_with_space && String.contains v ' ' then None
        else if prof.cn_split_slash && String.contains v '/' then
          Some (String.sub v 0 (String.index v '/'))
        else Some v
  in
  match k with
  | Some k when prof.index_drops_special && has_special k -> None
  | k -> k

let keys_of_fields prof f =
  let keys kind vs = List.filter_map (field_key prof kind) vs in
  List.map fold_key (keys Cn f.f_cns @ keys San f.f_sans @ keys Attr f.f_attrs)

let same_keys a b =
  a.indexes_subject_attrs = b.indexes_subject_attrs
  && a.cn_split_slash = b.cn_split_slash
  && a.cn_drop_with_space = b.cn_drop_with_space
  && a.index_drops_special = b.index_drops_special

let fields_of_cert cert =
  let tbs = cert.X509.Certificate.tbs in
  {
    f_cns = X509.Dn.get_text tbs.X509.Certificate.subject X509.Attr.Common_name;
    f_sans = X509.Certificate.san_dns_names cert;
    f_attrs =
      X509.Dn.get_text tbs.X509.Certificate.subject X509.Attr.Organization_name
      @ X509.Dn.get_text tbs.X509.Certificate.subject
          X509.Attr.Organizational_unit_name
      @ X509.Dn.get_text tbs.X509.Certificate.subject X509.Attr.Email_address;
  }

(* Keys a monitor derives from one certificate. *)
let keys_of prof cert = keys_of_fields prof (fields_of_cert cert)

let ingest m cert = m.entries <- (keys_of m.prof cert, cert) :: m.entries

let ingest_log m log =
  List.iter
    (fun (e : Ctlog.Log.entry) ->
      match X509.Certificate.parse e.Ctlog.Log.der with
      | Ok cert -> ingest m cert
      | Error _ -> ())
    (Ctlog.Log.entries log)

type query_result = Refused of string | Results of X509.Certificate.t list

let is_ascii_query q = String.for_all (fun c -> Char.code c < 0x80) q

(* Convert a U-label query to its A-label lookup form, validating if the
   monitor checks legality. *)
let prepare_query prof q =
  if not (is_ascii_query q) then begin
    if not prof.unicode_search then Error "Unicode input not supported"
    else begin
      let labels = Idna.Dns.split_labels q in
      let validated =
        List.map
          (fun l ->
            if String.for_all (fun c -> Char.code c < 0x80) l then Ok l
            else begin
              let cps = Unicode.Codec.cps_of_utf8 l in
              if prof.ulabel_check && Idna.ulabel_issues cps <> [] then
                Error (Printf.sprintf "invalid U-label %S" l)
              else
                match Idna.Punycode.encode_utf8 l with
                | Ok body -> Ok ("xn--" ^ body)
                | Error m -> Error m
            end)
          labels
      in
      match List.find_opt Result.is_error validated with
      | Some (Error m) -> Error m
      | Some (Ok _) -> assert false
      | None -> Ok (String.concat "." (List.map Result.get_ok validated))
    end
  end
  else begin
    (* A-label queries: monitors that check legality also validate
       Punycode IDN queries before searching. *)
    let labels = Idna.Dns.split_labels q in
    let bad_alabel =
      prof.ulabel_check
      && List.exists
           (fun l -> Idna.Dns.is_a_label_candidate l && Idna.alabel_issues l <> [])
           labels
    in
    (* Refusal is only about IDN *country-code* TLDs (Table 6 column
       "Punycode IDN ccTLD").  An A-label TLD that is not a ccIDN — an
       IDN gTLD like xn--q9jyb4c — must fall through to an ordinary
       search that may simply return no results: conflating "we do not
       serve ccIDN Punycode" with "not found" misreports the monitor's
       coverage. *)
    let cctld_refused =
      (not prof.punycode_ccidn)
      &&
      match List.rev labels with
      | tld :: _ -> Idna.Dns.is_idn_cctld tld
      | [] -> false
    in
    if bad_alabel then Error "A-label fails U-label legality check"
    else if cctld_refused then Error "Punycode IDN ccTLDs not supported"
    else Ok q
  end

(* Whether [needle] occurs in [hay]; allocates nothing, so a scan over
   every key of a log costs no garbage.  The empty needle occurs
   nowhere. *)
let rec occurs_at hay needle i j =
  j = String.length needle
  || String.unsafe_get hay (i + j) = String.unsafe_get needle j
     && occurs_at hay needle i (j + 1)

let rec scan hay needle i last =
  i <= last && (occurs_at hay needle i 0 || scan hay needle (i + 1) last)

let contains ~needle hay =
  String.length needle > 0
  && scan hay needle 0 (String.length hay - String.length needle)

let matches prof ~needle keys =
  if prof.fuzzy_search then List.exists (contains ~needle) keys
  else List.exists (String.equal needle) keys

let search m q =
  match prepare_query m.prof q with
  | Error reason -> Refused reason
  | Ok prepared ->
      let needle = fold_key prepared in
      Results
        (List.rev_map snd
           (List.filter (fun (keys, _) -> matches m.prof ~needle keys) m.entries)
        |> List.rev)

(* Profiles per Table 6. *)
let crtsh =
  {
    name = "Crt.sh";
    indexes_subject_attrs = true;
    fuzzy_search = true;
    unicode_search = false;
    ulabel_check = false;
    punycode_ccidn = true;
    cn_split_slash = false;
    cn_drop_with_space = false;
    index_drops_special = false;
  }

let sslmate =
  {
    name = "SSLMate Spotter";
    indexes_subject_attrs = false;
    fuzzy_search = false;
    unicode_search = false;
    ulabel_check = true;
    punycode_ccidn = true;
    cn_split_slash = true;
    cn_drop_with_space = true;
    index_drops_special = true;
  }

let facebook =
  {
    name = "Facebook Monitor";
    indexes_subject_attrs = false;
    fuzzy_search = false;
    unicode_search = false;
    ulabel_check = true;
    punycode_ccidn = true;
    cn_split_slash = false;
    cn_drop_with_space = false;
    index_drops_special = false;
  }

let entrust =
  {
    name = "Entrust Search";
    indexes_subject_attrs = false;
    fuzzy_search = false;
    unicode_search = false;
    ulabel_check = false;
    punycode_ccidn = false;
    cn_split_slash = false;
    cn_drop_with_space = false;
    index_drops_special = false;
  }

let merklemap =
  {
    name = "MerkleMap";
    indexes_subject_attrs = false;
    fuzzy_search = true;
    unicode_search = false;
    ulabel_check = false;
    punycode_ccidn = true;
    cn_split_slash = false;
    cn_drop_with_space = false;
    index_drops_special = false;
  }

let all = [ crtsh; sslmate; facebook; entrust; merklemap ]

(* Short stable keys for wire protocols and CLI flags. *)
let profile_key p =
  if p.name = crtsh.name then "crtsh"
  else if p.name = sslmate.name then "sslmate"
  else if p.name = facebook.name then "facebook"
  else if p.name = entrust.name then "entrust"
  else if p.name = merklemap.name then "merklemap"
  else String.lowercase_ascii p.name

let of_key k =
  List.find_opt (fun p -> profile_key p = String.lowercase_ascii k) all
