type t =
  | Other_name of Asn1.Oid.t * string
  | Rfc822_name of string
  | Dns_name of string
  | Directory_name of Dn.t
  | Uri of string
  | Ip_address of string
  | Registered_id of Asn1.Oid.t

let to_value gn =
  let open Asn1.Value in
  match gn with
  | Other_name (oid, raw) ->
      Explicit (0, [ Oid oid; Explicit (0, [ Octet_string raw ]) ])
  | Rfc822_name s -> Implicit (1, s)
  | Dns_name s -> Implicit (2, s)
  | Directory_name dn -> Explicit (4, [ Dn.to_value dn ])
  | Uri s -> Implicit (6, s)
  | Ip_address s -> Implicit (7, s)
  | Registered_id oid -> Implicit (8, Asn1.Oid.encode oid)

let of_value v =
  let open Asn1.Value in
  match v with
  | Implicit (1, s) -> Ok (Rfc822_name s)
  | Implicit (2, s) -> Ok (Dns_name s)
  | Implicit (6, s) -> Ok (Uri s)
  | Implicit (7, s) -> Ok (Ip_address s)
  | Implicit (8, raw) -> (
      match Asn1.Oid.decode raw with
      | Ok oid -> Ok (Registered_id oid)
      | Error m -> Error ("registeredID: " ^ m))
  | Explicit (4, [ dn ]) -> (
      match Dn.of_value dn with
      | Ok dn -> Ok (Directory_name dn)
      | Error m -> Error ("directoryName: " ^ m))
  | Explicit (0, [ Oid oid; Explicit (0, [ Octet_string raw ]) ]) ->
      Ok (Other_name (oid, raw))
  | Explicit (0, Oid oid :: _) -> Ok (Other_name (oid, ""))
  | Implicit (n, _) | Explicit (n, _) ->
      Error (Printf.sprintf "unsupported GeneralName choice [%d]" n)
  | _ -> Error "GeneralName must be context-tagged"

let kind = function
  | Other_name _ -> "otherName"
  | Rfc822_name _ -> "rfc822Name"
  | Dns_name _ -> "dNSName"
  | Directory_name _ -> "directoryName"
  | Uri _ -> "uniformResourceIdentifier"
  | Ip_address _ -> "iPAddress"
  | Registered_id _ -> "registeredID"

let text = function
  | Other_name (oid, _) -> Asn1.Oid.to_string oid
  | Rfc822_name s | Dns_name s | Uri s -> s
  | Directory_name dn -> Dn.to_string dn
  | Registered_id oid -> Asn1.Oid.to_string oid
  | Ip_address s ->
      if String.length s = 4 then
        Printf.sprintf "%d.%d.%d.%d" (Char.code s.[0]) (Char.code s.[1])
          (Char.code s.[2]) (Char.code s.[3])
      else
        String.concat ":"
          (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
