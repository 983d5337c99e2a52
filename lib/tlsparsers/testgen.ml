type mutation =
  | Subject_attr of X509.Attr.t * Asn1.Str_type.t * string
  | San_dns of string
  | San_rfc822 of string
  | San_uri of string
  | Crldp_uri of string
  | Aia_uri of string

(* Both keys are constants.  The issuer signs every test certificate,
   so it precomputes its HMAC pads once. *)
let issuer_key = X509.Certificate.mock_keypair ~signer:true ~seed:"testgen-issuer" ()
let leaf_key = X509.Certificate.mock_keypair ~seed:"testgen-leaf" ()

let issuer_dn =
  X509.Dn.of_list
    [ (X509.Attr.Country_name, "US"); (X509.Attr.Organization_name, "Testgen CA") ]

let make mutation =
  let default_cn = X509.Dn.atv X509.Attr.Common_name "test.com" in
  let default_san = [ X509.General_name.Dns_name "test.com" ] in
  let subject, san, crldp, aia =
    match mutation with
    | Subject_attr (attr, st, raw) ->
        let atv = X509.Dn.atv_raw ~st attr raw in
        let subject =
          if attr = X509.Attr.Common_name then [ atv ] else [ default_cn; atv ]
        in
        (subject, default_san, [], [])
    | San_dns payload -> ([ default_cn ], [ X509.General_name.Dns_name payload ], [], [])
    | San_rfc822 payload ->
        ([ default_cn ], default_san @ [ X509.General_name.Rfc822_name payload ], [], [])
    | San_uri payload ->
        ([ default_cn ], default_san @ [ X509.General_name.Uri payload ], [], [])
    | Crldp_uri payload -> ([ default_cn ], default_san, [ X509.General_name.Uri payload ], [])
    | Aia_uri payload -> ([ default_cn ], default_san, [], [ X509.General_name.Uri payload ])
  in
  let extensions =
    [ X509.Extension.subject_alt_name san ]
    @ (if crldp = [] then [] else [ X509.Extension.crl_distribution_points crldp ])
    @
    if aia = [] then []
    else
      [ X509.Extension.authority_info_access
          (List.map (fun gn -> (X509.Extension.Oids.ocsp, gn)) aia) ]
  in
  let tbs =
    X509.Certificate.make_tbs ~serial:"\x7A\x01"
      ~issuer:issuer_dn
      ~subject:(X509.Dn.single subject)
      ~not_before:(Asn1.Time.make 2024 1 1)
      ~not_after:(Asn1.Time.make 2025 1 1)
      ~spki:(X509.Certificate.keypair_spki leaf_key)
      ~sig_alg:X509.Certificate.Oids.mock_signature ~extensions ()
  in
  X509.Certificate.sign issuer_key tbs

let byte_battery =
  [
    "test.com";
    "caf\xC3\xA9.example" (* well-formed UTF-8 *);
    "caf\xE9.example" (* Latin-1 byte *);
    "ctl\x01\x1Fx" (* C0 controls *);
    "\x00g\x00i\x00t\x00h\x00u\x00b" (* UCS-2 "github" *);
    "\x00c\x00a\x00f\x00\xE9" (* UCS-2 "café" *);
    "\xD8\x3D\xDE\x00" (* UTF-16 surrogate pair (U+1F600) *);
    "A";
    "mix\xC3\xA9\xE9" (* valid + invalid UTF-8 in one value *);
  ]

let embed payload = "test" ^ payload ^ ".com"

let block_samples () =
  Array.to_list Unicode.Blocks.non_surrogate
  |> List.map (fun b ->
         let cp = Unicode.Blocks.sample b in
         (b.Unicode.Blocks.name, embed (Unicode.Codec.utf8_of_cps [| cp |])))

let c0_to_ff_samples () =
  List.init 0x100 (fun cp -> embed (Unicode.Codec.utf8_of_cps [| cp |]))

let raw_subject_attr cert attr =
  match X509.Dn.get cert.X509.Certificate.tbs.X509.Certificate.subject attr with
  | { X509.Dn.value = Asn1.Value.Str (st, raw); _ } :: _ -> Some (st, raw)
  | _ -> None

let raw_san_payloads cert =
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

let raw_crldp_payloads cert =
  match
    X509.Extension.find cert.X509.Certificate.tbs.X509.Certificate.extensions
      X509.Extension.Oids.crl_distribution_points
  with
  | None -> []
  | Some e -> (
      match X509.Extension.parse_crl_distribution_points e.X509.Extension.value with
      | Error _ -> []
      | Ok gns ->
          List.filter_map
            (function X509.General_name.Uri s -> Some s | _ -> None)
            gns)
