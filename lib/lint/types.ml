type source =
  | Rfc5280
  | Rfc8399
  | Rfc9549
  | Rfc9598
  | Rfc1034
  | Rfc5890
  | Idna2008
  | Cab_br
  | X680
  | Community

let source_name = function
  | Rfc5280 -> "RFC 5280"
  | Rfc8399 -> "RFC 8399"
  | Rfc9549 -> "RFC 9549"
  | Rfc9598 -> "RFC 9598"
  | Rfc1034 -> "RFC 1034"
  | Rfc5890 -> "RFC 5890"
  | Idna2008 -> "IDNA2008"
  | Cab_br -> "CA/B BR"
  | X680 -> "ITU-T X.680"
  | Community -> "Community"

type level = Must | Must_not | Should | Should_not

let level_name = function
  | Must -> "MUST"
  | Must_not -> "MUST NOT"
  | Should -> "SHOULD"
  | Should_not -> "SHOULD NOT"

type nc_type =
  | Invalid_character
  | Bad_normalization
  | Illegal_format
  | Invalid_encoding
  | Invalid_structure
  | Discouraged_field

let nc_type_name = function
  | Invalid_character -> "Invalid Character"
  | Bad_normalization -> "Bad Normalization"
  | Illegal_format -> "Illegal Format"
  | Invalid_encoding -> "Invalid Encoding"
  | Invalid_structure -> "Invalid Structure"
  | Discouraged_field -> "Discouraged Field"

let all_nc_types =
  [ Invalid_character; Bad_normalization; Illegal_format; Invalid_encoding;
    Invalid_structure; Discouraged_field ]

type severity = Error | Warning

let severity_of_level = function
  | Must | Must_not -> Error
  | Should | Should_not -> Warning

type status = Na | Pass | Warn of string list | Fail of string list

type t = {
  name : string;
  description : string;
  source : source;
  level : level;
  nc_type : nc_type;
  is_new : bool;
  effective_date : Asn1.Time.t;
  check : Ctx.t -> status;
}

type finding = { lint : t; status : status }

let severity l = severity_of_level l.level

let is_noncompliant f =
  match f.status with Warn _ | Fail _ -> true | Na | Pass -> false

let mk ~name ~description ~source ~level ~nc_type ?(is_new = false) ~effective check =
  { name; description; source; level; nc_type; is_new; effective_date = effective; check }
