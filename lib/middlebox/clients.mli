(** HTTP(S) client hostname-validation models (§6.2 [P2.2]): libcurl,
    urllib3, requests and Java HttpClient, with their documented
    differences in SAN format checking. *)

type t = {
  name : string;
  validate : X509.Certificate.t -> hostname:string -> (unit, string) result;
}

val libcurl : t
(** Strict: SAN entries must be LDH; IDN hostnames are converted to
    A-labels before matching. *)

val urllib3 : t
(** Latin-1-tolerant SAN handling, no Punycode validity check: raw
    U-labels in SAN dNSNames can satisfy validation. *)

val requests : t
(** Built on urllib3; inherits its SAN handling. *)

val all : t list
