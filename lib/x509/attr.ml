type t =
  | Common_name
  | Surname
  | Serial_number
  | Country_name
  | Locality_name
  | State_or_province_name
  | Street_address
  | Organization_name
  | Organizational_unit_name
  | Title
  | Given_name
  | Business_category
  | Postal_code
  | Domain_component
  | Email_address
  | Jurisdiction_locality
  | Jurisdiction_state
  | Jurisdiction_country
  | Unknown of Asn1.Oid.t

let o s = Asn1.Oid.register (Asn1.Oid.of_string_exn s)

let table =
  [
    (Common_name, o "2.5.4.3", "commonName", Some "CN", Some 64);
    (Surname, o "2.5.4.4", "surname", Some "SN", Some 40);
    (Serial_number, o "2.5.4.5", "serialNumber", None, Some 64);
    (Country_name, o "2.5.4.6", "countryName", Some "C", Some 2);
    (Locality_name, o "2.5.4.7", "localityName", Some "L", Some 128);
    (State_or_province_name, o "2.5.4.8", "stateOrProvinceName", Some "ST", Some 128);
    (Street_address, o "2.5.4.9", "streetAddress", Some "STREET", Some 128);
    (Organization_name, o "2.5.4.10", "organizationName", Some "O", Some 64);
    (Organizational_unit_name, o "2.5.4.11", "organizationalUnitName", Some "OU", Some 64);
    (Title, o "2.5.4.12", "title", None, Some 64);
    (Given_name, o "2.5.4.42", "givenName", None, Some 16);
    (Business_category, o "2.5.4.15", "businessCategory", None, Some 128);
    (Postal_code, o "2.5.4.17", "postalCode", None, Some 40);
    (Domain_component, o "0.9.2342.19200300.100.1.25", "domainComponent", Some "DC", None);
    (Email_address, o "1.2.840.113549.1.9.1", "emailAddress", Some "E", Some 255);
    (Jurisdiction_locality, o "1.3.6.1.4.1.311.60.2.1.1", "jurisdictionLocalityName", None, Some 128);
    (Jurisdiction_state, o "1.3.6.1.4.1.311.60.2.1.2", "jurisdictionStateOrProvinceName", None, Some 128);
    (Jurisdiction_country, o "1.3.6.1.4.1.311.60.2.1.3", "jurisdictionCountryName", None, Some 2);
  ]

let row a = List.find_opt (fun (t, _, _, _, _) -> t = a) table

let oid = function
  | Unknown oid -> oid
  | a -> ( match row a with Some (_, oid, _, _, _) -> oid | None -> assert false)

let of_oid_tbl : (Asn1.Oid.t, t) Hashtbl.t =
  let h = Hashtbl.create 32 in
  List.iter (fun (a, o, _, _, _) -> Hashtbl.replace h o a) table;
  h

let of_oid oid =
  match Hashtbl.find_opt of_oid_tbl oid with
  | Some a -> a
  | None -> Unknown oid

let name = function
  | Unknown oid -> Asn1.Oid.to_string oid
  | a -> ( match row a with Some (_, _, n, _, _) -> n | None -> assert false)

let short_name = function
  | Unknown _ -> None
  | a -> ( match row a with Some (_, _, _, s, _) -> s | None -> None)

let all_known = List.map (fun (a, _, _, _, _) -> a) table
