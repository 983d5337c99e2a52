let smtputf8_oid = Asn1.Oid.register (Asn1.Oid.of_string_exn "1.3.6.1.5.5.7.8.9")

let rfc5280_date = Asn1.Time.make 2008 5 1
let idna2008_date = Asn1.Time.make 2010 8 1
let cab_br_date = Asn1.Time.make 2012 7 1
let community_date = Asn1.Time.make 2015 1 1
let rfc8399_date = Asn1.Time.make 2018 5 1
let rfc9598_date = Asn1.Time.make 2024 6 1
let emit level details =
  match details with
  | [] -> Types.Pass
  | _ -> (
      match Types.severity_of_level level with
      | Types.Error -> Types.Fail details
      | Types.Warning -> Types.Warn details)

let describe_cp = Unicode.Cp.to_string

let subject_values ctx = ctx.Ctx.subject_vals
let all_values ctx = ctx.Ctx.all_vals

let rec count_attr attr = function
  | [] -> 0
  | (v : Ctx.aval) :: rest -> (if v.Ctx.a_attr = attr then 1 else 0) + count_attr attr rest

(* Stdlib's [String.exists] builds its loop closure on every call; this
   top-level recursion does not, so a scan that finds nothing
   allocates nothing (given a closed predicate). *)
let rec exists_byte_from p s i =
  i < String.length s && (p (String.unsafe_get s i) || exists_byte_from p s (i + 1))

let exists_byte p s = exists_byte_from p s 0
let has_non_ascii s = exists_byte (fun c -> Char.code c > 0x7F) s

let names_of = function Some (Ok gns) -> gns | Some (Error _) | None -> []

let san_names ctx = names_of ctx.Ctx.san
let ian_names ctx = names_of ctx.Ctx.ian
let crldp_list ctx = names_of ctx.Ctx.crldp_names

let rec concat_map_locations f = function
  | [] -> []
  | (_, gn) :: rest -> (
      match f gn with
      | [] -> concat_map_locations f rest
      | d -> d @ concat_map_locations f rest)

let locations f = function
  | Some (Ok descs) -> concat_map_locations f descs
  | Some (Error _) | None -> []

let aia_details f ctx = locations f ctx.Ctx.aia
let sia_details f ctx = locations f ctx.Ctx.sia

let non_ia5 payload =
  if not (has_non_ascii payload) then []
  else begin
    let bad = ref [] in
    String.iter (fun c -> if Char.code c > 0x7F then bad := Char.code c :: !bad) payload;
    List.rev !bad
  end
