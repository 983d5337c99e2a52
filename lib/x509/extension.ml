type t = { oid : Asn1.Oid.t; critical : bool; value : string }

module Oids = struct
  let o s = Asn1.Oid.register (Asn1.Oid.of_string_exn s)
  let subject_alt_name = o "2.5.29.17"
  let issuer_alt_name = o "2.5.29.18"
  let crl_distribution_points = o "2.5.29.31"
  let certificate_policies = o "2.5.29.32"
  let basic_constraints = o "2.5.29.19"
  let key_usage = o "2.5.29.15"
  let authority_info_access = o "1.3.6.1.5.5.7.1.1"
  let subject_info_access = o "1.3.6.1.5.5.7.1.11"
  let name_constraints = o "2.5.29.30"
  let ct_poison = o "1.3.6.1.4.1.11129.2.4.3"
  let sct_list = o "1.3.6.1.4.1.11129.2.4.2"
  let ocsp = o "1.3.6.1.5.5.7.48.1"
  let ca_issuers = o "1.3.6.1.5.5.7.48.2"
end

let find exts oid = List.find_opt (fun e -> Asn1.Oid.equal e.oid oid) exts

let collect_results f items =
  List.fold_left
    (fun acc item ->
      match acc with
      | Error _ as e -> e
      | Ok l -> ( match f item with Ok v -> Ok (v :: l) | Error _ as e -> e))
    (Ok []) items
  |> Result.map List.rev


let general_names_value gns =
  Asn1.Value.Sequence (List.map General_name.to_value gns)

let subject_alt_name ?(critical = false) gns =
  { oid = Oids.subject_alt_name; critical;
    value = Asn1.Value.encode (general_names_value gns) }

let issuer_alt_name gns =
  { oid = Oids.issuer_alt_name; critical = false;
    value = Asn1.Value.encode (general_names_value gns) }

let crl_distribution_points gns =
  (* DistributionPoint ::= SEQUENCE { distributionPoint [0] EXPLICIT
     DistributionPointName OPTIONAL, ... }; DistributionPointName ::=
     CHOICE { fullName [0] IMPLICIT GeneralNames, ... }.  The inner [0]
     is constructed because GeneralNames is a SEQUENCE. *)
  let point gn =
    Asn1.Value.Sequence
      [ Asn1.Value.Explicit (0, [ Asn1.Value.Explicit (0, [ General_name.to_value gn ]) ]) ]
  in
  { oid = Oids.crl_distribution_points; critical = false;
    value = Asn1.Value.encode (Asn1.Value.Sequence (List.map point gns)) }

let info_access oid entries =
  let desc (meth, gn) =
    Asn1.Value.Sequence [ Asn1.Value.Oid meth; General_name.to_value gn ]
  in
  { oid; critical = false;
    value = Asn1.Value.encode (Asn1.Value.Sequence (List.map desc entries)) }

let authority_info_access = info_access Oids.authority_info_access
let subject_info_access = info_access Oids.subject_info_access

type user_notice = { explicit_text : Asn1.Value.t option }
type policy = { policy_oid : Asn1.Oid.t; notice : user_notice option }

let unotice_oid = Asn1.Oid.register (Asn1.Oid.of_string_exn "1.3.6.1.5.5.7.2.2")

let certificate_policies policies =
  let policy_value p =
    let quals =
      match p.notice with
      | None -> []
      | Some n ->
          let notice_fields =
            match n.explicit_text with None -> [] | Some text -> [ text ]
          in
          [ Asn1.Value.Sequence
              [ Asn1.Value.Oid unotice_oid; Asn1.Value.Sequence notice_fields ] ]
    in
    let quals_field =
      if quals = [] then [] else [ Asn1.Value.Sequence quals ]
    in
    Asn1.Value.Sequence (Asn1.Value.Oid p.policy_oid :: quals_field)
  in
  { oid = Oids.certificate_policies; critical = false;
    value = Asn1.Value.encode (Asn1.Value.Sequence (List.map policy_value policies)) }

let basic_constraints ?(ca = false) ?path_len () =
  let fields =
    (if ca then [ Asn1.Value.Boolean true ] else [])
    @ match path_len with None -> [] | Some n -> [ Asn1.Value.integer_of_int n ]
  in
  { oid = Oids.basic_constraints; critical = true;
    value = Asn1.Value.encode (Asn1.Value.Sequence fields) }

let key_usage bits =
  (* KeyUsage bit 0 (digitalSignature) is the most significant bit of
     the first octet in the BIT STRING. *)
  let byte = ref 0 in
  for i = 0 to 7 do
    if bits lsr i land 1 = 1 then byte := !byte lor (0x80 lsr i)
  done;
  { oid = Oids.key_usage; critical = true;
    value = Asn1.Value.encode (Asn1.Value.Bit_string (0, String.make 1 (Char.chr !byte))) }

let name_constraints ?(permitted = []) ?(excluded = []) () =
  let subtrees gns =
    Asn1.Value.Sequence
      (List.map (fun gn -> Asn1.Value.Sequence [ General_name.to_value gn ]) gns)
  in
  let fields =
    (if permitted = [] then []
     else [ Asn1.Value.Explicit (0, [ subtrees permitted ]) ])
    @
    if excluded = [] then [] else [ Asn1.Value.Explicit (1, [ subtrees excluded ]) ]
  in
  { oid = Oids.name_constraints; critical = true;
    value = Asn1.Value.encode (Asn1.Value.Sequence fields) }

let parse_name_constraints der =
  match Asn1.Value.decode der with
  | Error e -> Error (Format.asprintf "%a" Asn1.Value.pp_error e)
  | Ok (Asn1.Value.Sequence fields) ->
      let open Asn1.Value in
      let subtree_bases = function
        | Sequence trees ->
            collect_results
              (function
                | Sequence (gn :: _) -> General_name.of_value gn
                | _ -> Error "GeneralSubtree must be a SEQUENCE")
              trees
        | _ -> Error "subtrees must be a SEQUENCE"
      in
      let find tag =
        List.find_map
          (function Explicit (t, [ sub ]) when t = tag -> Some sub | _ -> None)
          fields
      in
      let get tag =
        match find tag with None -> Ok [] | Some sub -> subtree_bases sub
      in
      Result.bind (get 0) (fun permitted ->
          Result.bind (get 1) (fun excluded -> Ok (permitted, excluded)))
  | Ok _ -> Error "NameConstraints must be a SEQUENCE"

let ct_poison =
  { oid = Oids.ct_poison; critical = true; value = Asn1.Value.encode Asn1.Value.Null }

let sct_list payload =
  { oid = Oids.sct_list; critical = false;
    value = Asn1.Value.encode (Asn1.Value.Octet_string payload) }

let parse_general_names der =
  match Asn1.Value.decode der with
  | Error e -> Error (Format.asprintf "%a" Asn1.Value.pp_error e)
  | Ok (Asn1.Value.Sequence gns) -> collect_results General_name.of_value gns
  | Ok _ -> Error "GeneralNames must be a SEQUENCE"

let parse_crl_distribution_points der =
  match Asn1.Value.decode der with
  | Error e -> Error (Format.asprintf "%a" Asn1.Value.pp_error e)
  | Ok (Asn1.Value.Sequence points) ->
      let open Asn1.Value in
      let point_names = function
        | Sequence (Explicit (0, [ Explicit (0, gns) ]) :: _) ->
            collect_results General_name.of_value gns
        | Sequence _ -> Ok []
        | _ -> Error "DistributionPoint must be a SEQUENCE"
      in
      collect_results point_names points |> Result.map List.concat
  | Ok _ -> Error "CRLDistributionPoints must be a SEQUENCE"

let parse_info_access der =
  match Asn1.Value.decode der with
  | Error e -> Error (Format.asprintf "%a" Asn1.Value.pp_error e)
  | Ok (Asn1.Value.Sequence descs) ->
      let open Asn1.Value in
      let desc = function
        | Sequence [ Oid meth; gn ] ->
            Result.map (fun g -> (meth, g)) (General_name.of_value gn)
        | _ -> Error "AccessDescription must be SEQUENCE { OID, GeneralName }"
      in
      collect_results desc descs
  | Ok _ -> Error "AuthorityInfoAccess must be a SEQUENCE"

let parse_certificate_policies der =
  match Asn1.Value.decode der with
  | Error e -> Error (Format.asprintf "%a" Asn1.Value.pp_error e)
  | Ok (Asn1.Value.Sequence policies) ->
      let open Asn1.Value in
      let notice_of = function
        | Sequence [ Oid q; Sequence fields ] when Asn1.Oid.equal q unotice_oid ->
            let explicit_text =
              List.find_opt (function Str _ -> true | _ -> false) fields
            in
            Some { explicit_text }
        | _ -> None
      in
      let policy_of = function
        | Sequence (Oid policy_oid :: rest) ->
            let notice =
              match rest with
              | [ Sequence quals ] -> List.find_map notice_of quals
              | _ -> None
            in
            Ok { policy_oid; notice }
        | _ -> Error "PolicyInformation must start with an OID"
      in
      collect_results policy_of policies
  | Ok _ -> Error "CertificatePolicies must be a SEQUENCE"

let to_value e =
  let critical_field = if e.critical then [ Asn1.Value.Boolean true ] else [] in
  Asn1.Value.Sequence
    ((Asn1.Value.Oid e.oid :: critical_field) @ [ Asn1.Value.Octet_string e.value ])

let of_value = function
  | Asn1.Value.Sequence [ Asn1.Value.Oid oid; Asn1.Value.Octet_string value ] ->
      Ok { oid; critical = false; value }
  | Asn1.Value.Sequence
      [ Asn1.Value.Oid oid; Asn1.Value.Boolean critical; Asn1.Value.Octet_string value ] ->
      Ok { oid; critical; value }
  | _ -> Error "Extension must be SEQUENCE { OID, [critical,] OCTET STRING }"
