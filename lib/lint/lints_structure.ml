(* T3c/T3d — Invalid Structure and Discouraged Field lints.  2 + 2
   lints, matching Table 1's taxonomy. *)

open Types
open Helpers

(* The CN check compares with [String.lowercase_ascii a =
   String.lowercase_ascii b] semantics without building either string:
   an ASCII CN through its code points, any other through its UTF-8
   text, encoded once. *)
let rec equal_ci_cps s cps i =
  i >= Array.length cps
  || Char.lowercase_ascii (String.unsafe_get s i)
     = Char.lowercase_ascii (Char.unsafe_chr (Array.unsafe_get cps i))
     && equal_ci_cps s cps (i + 1)

let rec equal_ci_text s text i =
  i >= String.length text
  || Char.lowercase_ascii (String.unsafe_get s i)
     = Char.lowercase_ascii (String.unsafe_get text i)
     && equal_ci_text s text (i + 1)

let cn_equal ~ascii cps text s =
  if ascii then String.length s = Array.length cps && equal_ci_cps s cps 0
  else String.length s = String.length text && equal_ci_text s text 0

(* CA/B BR 7.1.4.2.2 lets the CN duplicate a dNSName, rfc822Name or URI
   payload or an iPAddress's text; every SAN entry that is not an
   iPAddress also offers the empty string. *)
let rec cn_in_san ~ascii cps text = function
  | [] -> false
  | gn :: rest ->
      (match gn with
      | X509.General_name.Dns_name s
      | X509.General_name.Rfc822_name s
      | X509.General_name.Uri s ->
          cn_equal ~ascii cps text s || cn_equal ~ascii cps text ""
      | X509.General_name.Ip_address _ ->
          cn_equal ~ascii cps text (X509.General_name.text gn)
      | X509.General_name.Other_name _ | X509.General_name.Directory_name _
      | X509.General_name.Registered_id _ ->
          cn_equal ~ascii cps text "")
      || cn_in_san ~ascii cps text rest

let cn_missing san (v : Ctx.aval) =
  let ascii = v.Ctx.a_mask land Unicode.Props.m_nonascii = 0 in
  let text = if ascii then "" else Unicode.Codec.utf8_of_cps v.Ctx.a_cps in
  not (cn_in_san ~ascii v.Ctx.a_cps text san)

let rec cns_missing_from san = function
  | [] -> []
  | (v : Ctx.aval) :: rest ->
      if v.Ctx.a_attr = X509.Attr.Common_name && cn_missing san v then
        Printf.sprintf "CN %S not present in SAN" (Unicode.Codec.utf8_of_cps v.Ctx.a_cps)
        :: cns_missing_from san rest
      else cns_missing_from san rest

(* Does an attribute other than DC and OU occur twice? *)
let rec repeats_attribute = function
  | [] -> false
  | (v : Ctx.aval) :: rest ->
      (v.Ctx.a_attr <> X509.Attr.Domain_component
       && v.Ctx.a_attr <> X509.Attr.Organizational_unit_name
       && count_attr v.Ctx.a_attr rest > 0)
      || repeats_attribute rest

let lints : Types.t list =
  [
    (* Invalid Structure (2) *)
    mk ~name:"w_cab_subject_common_name_not_in_san"
      ~description:
        "If present, the subject CN must duplicate a value from the SAN \
         extension (CA/B BR 7.1.4.2.2)."
      ~source:Cab_br ~level:Must ~nc_type:Invalid_structure ~effective:cab_br_date
      (fun ctx ->
        let values = subject_values ctx in
        if count_attr X509.Attr.Common_name values = 0 then Na
        else emit Must (cns_missing_from (san_names ctx) values));
    mk ~name:"e_subject_duplicate_attribute"
      ~description:
        "Subject attribute types must not be repeated (duplicate CNs confuse \
         entity extraction)."
      ~source:Community ~level:Must ~nc_type:Invalid_structure ~effective:cab_br_date
      (fun ctx ->
        let values = subject_values ctx in
        (* The table only on a hit: its fold order fixes the detail
           order. *)
        if not (repeats_attribute values) then Pass
        else begin
          let counts = Hashtbl.create 8 in
          List.iter
            (fun (v : Ctx.aval) ->
              Hashtbl.replace counts v.Ctx.a_attr
                (1 + try Hashtbl.find counts v.Ctx.a_attr with Not_found -> 0))
            values;
          let bad =
            Hashtbl.fold
              (fun attr n acc ->
                if n > 1 && attr <> X509.Attr.Domain_component
                   && attr <> X509.Attr.Organizational_unit_name
                then Printf.sprintf "%s appears %d times" (X509.Attr.name attr) n :: acc
                else acc)
              counts []
          in
          emit Must bad
        end);
    (* Discouraged Field (2) *)
    mk ~name:"w_cab_subject_contain_extra_common_name"
      ~description:
        "Subjects should carry at most one commonName (deprecated field; extra \
         CNs are discouraged)."
      ~source:Cab_br ~level:Should_not ~nc_type:Discouraged_field ~effective:cab_br_date
      (fun ctx ->
        let n = count_attr X509.Attr.Common_name (subject_values ctx) in
        if n > 1 then Warn [ Printf.sprintf "subject contains %d commonNames" n ] else Pass);
    mk ~name:"w_ext_san_uri_discouraged"
      ~description:
        "URI entries in the SAN of TLS server certificates are discouraged \
         (CA/B BR restrict SAN to dNSName and iPAddress)."
      ~source:Cab_br ~level:Should_not ~nc_type:Discouraged_field ~effective:cab_br_date
      (fun ctx ->
        emit Should_not
          (List.filter_map
             (fun gn ->
               match gn with
               | X509.General_name.Uri u -> Some (Printf.sprintf "SAN contains URI %S" u)
               | _ -> None)
             (san_names ctx)));
  ]
