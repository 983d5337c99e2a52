(** Wire-level inspection: the detection engines applied to captured
    TLS 1.2 flows, where the server certificate is visible in clear —
    the setting of the §6.2 threat model. *)

type verdict = {
  engine : string;
  blocked : bool;  (** whether a blocklist rule fired *)
  sni : string option;
}

val inspect :
  Engine.t -> rules:Engine.rule list ->
  client_flow:Tlswire.Wire.flow -> server_flow:Tlswire.Wire.flow -> verdict
(** [inspect engine ~rules ~client_flow ~server_flow] parses the
    handshakes, extracts the entity fields the engine looks at, and
    reports whether any blocklist rule fires. *)

val tls_session :
  ?sni:string -> seed:int -> X509.Certificate.t list ->
  Tlswire.Wire.flow * Tlswire.Wire.flow
(** [tls_session ~seed chain] builds the (client, server) flows of a
    TLS 1.2 handshake presenting [chain]. *)
