let u16 n = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xFF))

let read_u16 s off =
  if off + 2 > String.length s then None
  else Some ((Char.code s.[off] lsl 8) lor Char.code s.[off + 1])

let sct_to_bytes (sct : Log.sct) =
  u16 (String.length sct.Log.log_id)
  ^ sct.Log.log_id
  ^ u16 sct.Log.timestamp
  ^ u16 (String.length sct.Log.signature)
  ^ sct.Log.signature

let sct_of_bytes s =
  match read_u16 s 0 with
  | None -> Error "truncated log id length"
  | Some id_len -> (
      let off = 2 in
      if off + id_len > String.length s then Error "truncated log id"
      else begin
        let log_id = String.sub s off id_len in
        let off = off + id_len in
        match read_u16 s off with
        | None -> Error "truncated timestamp"
        | Some timestamp -> (
            let off = off + 2 in
            match read_u16 s off with
            | None -> Error "truncated signature length"
            | Some sig_len ->
                let off = off + 2 in
                if off + sig_len > String.length s then Error "truncated signature"
                else
                  Ok { Log.log_id; timestamp; signature = String.sub s off sig_len })
      end)

type issued = {
  precert : X509.Certificate.t;
  final : X509.Certificate.t;
}

let issue_with_sct log ca (tbs : X509.Certificate.tbs) =
  let precert_tbs =
    { tbs with
      X509.Certificate.extensions =
        tbs.X509.Certificate.extensions @ [ X509.Extension.ct_poison ] }
  in
  let precert = X509.Certificate.sign ca precert_tbs in
  let sct = Log.add_chain log ~precert:true precert.X509.Certificate.der in
  let final_tbs =
    { tbs with
      X509.Certificate.extensions =
        tbs.X509.Certificate.extensions
        @ [ X509.Extension.sct_list (sct_to_bytes sct) ] }
  in
  let final = X509.Certificate.sign ca final_tbs in
  ignore (Log.add_chain log final.X509.Certificate.der);
  { precert; final }

let embedded_scts cert =
  match
    X509.Extension.find cert.X509.Certificate.tbs.X509.Certificate.extensions
      X509.Extension.Oids.sct_list
  with
  | None -> []
  | Some e -> (
      match Asn1.Value.decode e.X509.Extension.value with
      | Ok (Asn1.Value.Octet_string payload) -> (
          match sct_of_bytes payload with Ok sct -> [ sct ] | Error _ -> [])
      | Ok _ | Error _ -> [])

(* The signed precertificate bytes depend on the issuing key, so the
   relying party matches the embedded SCT against the log's
   precertificate entries instead of re-deriving the poisoned TBS. *)
let verify_embedded log cert =
  match embedded_scts cert with
  | [] -> false
  | scts ->
      List.exists
        (fun sct ->
          List.exists
            (fun (e : Log.entry) ->
              e.Log.precert && Log.verify_sct log ~der:e.Log.der sct)
            (Log.entries log))
        scts
