type verdict = {
  engine : string;
  blocked : bool;
  sni : string option;
}

let inspect (engine : Engine.t) ~rules ~client_flow ~server_flow =
  let certs = Tlswire.Wire.server_certificates server_flow in
  let sni = Tlswire.Wire.sni_of_flow client_flow in
  let leaf = match certs with c :: _ -> Some c | [] -> None in
  {
    engine = engine.Engine.name;
    blocked =
      (match leaf with
      | None -> false
      | Some cert -> List.exists (fun rule -> Engine.matches engine rule cert) rules);
    sni;
  }

let tls_session ?sni ~seed chain =
  let g = Ucrypto.Prng.create seed in
  let client = Tlswire.Wire.client_hello_flow ?sni g in
  let server = Tlswire.Wire.server_flight g chain in
  (client, server)
