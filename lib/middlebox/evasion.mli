(** The §6.2 findings as executable experiments: [P2.1] entity-parsing
    divergence across detection tools, [P2.2] lax SAN format checks in
    client implementations. *)

type finding = { id : string; description : string; demonstrated : bool }

val ulabel_san_client_acceptance : unit -> (string * bool) list
(** For each client model: does a certificate whose SAN carries a raw
    U-label validate against the U-label hostname ([P2.2])?  urllib3 and
    requests accept; libcurl does not. *)

val all_findings : unit -> finding list

val render : Format.formatter -> unit
