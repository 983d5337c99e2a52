type time_form = Utc | Generalized

type spki = { alg : Asn1.Oid.t; key : string }

type tbs = {
  version : int;
  serial : string;
  sig_alg : Asn1.Oid.t;
  issuer : Dn.t;
  not_before : Asn1.Time.t * time_form;
  not_after : Asn1.Time.t * time_form;
  subject : Dn.t;
  spki : spki;
  extensions : Extension.t list;
}

type t = {
  tbs : tbs;
  tbs_der : string;
  signature : string;
  der : string;
}

module Oids = struct
  let o s = Asn1.Oid.register (Asn1.Oid.of_string_exn s)
  let sha256_with_rsa = o "1.2.840.113549.1.1.11"
  let rsa_encryption = o "1.2.840.113549.1.1.1"
  let mock_signature = o "1.3.6.1.4.1.55555.1.1"
  let mock_key = o "1.3.6.1.4.1.55555.2.1"
end

type keypair =
  | Mock of { spki : spki; mac : Ucrypto.Sha256.hmac_key option }
  | Rsa_keypair of { key : Ucrypto.Rsa.key; spki : spki }

(* The MAC secret is derived from the public key so that relying
   parties can verify; the scheme is a binding check, not a real
   signature (DESIGN.md). *)
let mock_secret public = Ucrypto.Sha256.digest ("mock-bind:" ^ public)

let mock_keypair ?(signer = false) ~seed () =
  (* [signer] keypairs (issuers, CT logs) precompute the HMAC pad
     midstates, amortizing them over every signature they emit.  Leaf
     keypairs never sign, so they skip the secret derivation
     entirely. *)
  let public = Ucrypto.Sha256.digest ("mock-public:" ^ seed) in
  let mac =
    if signer then Some (Ucrypto.Sha256.hmac_init (mock_secret public)) else None
  in
  Mock { spki = { alg = Oids.mock_key; key = public }; mac }

let rsa_keypair key =
  Rsa_keypair { key; spki = { alg = Oids.rsa_encryption; key = Ucrypto.Rsa.public_to_der key.Ucrypto.Rsa.public } }

let keypair_spki = function Mock m -> m.spki | Rsa_keypair r -> r.spki

let algorithm_identifier oid =
  Asn1.Value.Sequence [ Asn1.Value.Oid oid; Asn1.Value.Null ]

let time_value (t, form) =
  match form with
  | Utc -> Asn1.Value.Utc_time (Asn1.Time.to_utctime t)
  | Generalized -> Asn1.Value.Generalized_time (Asn1.Time.to_generalized t)

let default_form (t : Asn1.Time.t) = if t.Asn1.Time.year < 2050 then Utc else Generalized

let make_tbs ?(version = 2) ?(serial = "\x01") ?(extensions = []) ~issuer ~subject
    ~not_before ~not_after ?not_before_form ?not_after_form ~spki ~sig_alg () =
  let nb_form = match not_before_form with Some f -> f | None -> default_form not_before in
  let na_form = match not_after_form with Some f -> f | None -> default_form not_after in
  {
    version;
    serial;
    sig_alg;
    issuer;
    not_before = (not_before, nb_form);
    not_after = (not_after, na_form);
    subject;
    spki;
    extensions;
  }

let spki_value spki =
  Asn1.Value.Sequence [ algorithm_identifier spki.alg; Asn1.Value.Bit_string (0, spki.key) ]

let tbs_value tbs =
  let open Asn1.Value in
  let version_field =
    if tbs.version = 0 then [] else [ Explicit (0, [ integer_of_int tbs.version ]) ]
  in
  let extensions_field =
    if tbs.extensions = [] then []
    else [ Explicit (3, [ Sequence (List.map Extension.to_value tbs.extensions) ]) ]
  in
  Sequence
    (version_field
    @ [
        Integer tbs.serial;
        algorithm_identifier tbs.sig_alg;
        Dn.to_value tbs.issuer;
        Sequence [ time_value tbs.not_before; time_value tbs.not_after ];
        Dn.to_value tbs.subject;
        spki_value tbs.spki;
      ]
    @ extensions_field)

let encode_tbs tbs = Asn1.Value.encode (tbs_value tbs)

let raw_sign keypair tbs_der =
  match keypair with
  | Mock { mac = Some hk; _ } -> Ucrypto.Sha256.hmac_with hk tbs_der
  | Mock m -> Ucrypto.Sha256.hmac ~key:(mock_secret m.spki.key) tbs_der
  | Rsa_keypair r -> Ucrypto.Rsa.sign r.key tbs_der

let sign keypair tbs =
  let tbs_der = encode_tbs tbs in
  let signature = raw_sign keypair tbs_der in
  let der =
    Asn1.Writer.sequence
      [
        tbs_der;
        Asn1.Value.encode (algorithm_identifier tbs.sig_alg);
        Asn1.Value.encode (Asn1.Value.Bit_string (0, signature));
      ]
  in
  { tbs; tbs_der; signature; der }

let parse_time v =
  match v with
  | Asn1.Value.Utc_time s -> (
      match Asn1.Time.of_utctime s with
      | Ok t -> Ok (t, Utc)
      | Error m -> Error ("bad UTCTime: " ^ m))
  | Asn1.Value.Generalized_time s -> (
      match Asn1.Time.of_generalized s with
      | Ok t -> Ok (t, Generalized)
      | Error m -> Error ("bad GeneralizedTime: " ^ m))
  | _ -> Error "validity field must be a time"

let parse_alg = function
  | Asn1.Value.Sequence (Asn1.Value.Oid oid :: _) -> Ok oid
  | _ -> Error "AlgorithmIdentifier must be SEQUENCE { OID, ... }"

let ( >>= ) r f = Result.bind r f

let parse_tbs_fields fields =
  let open Asn1.Value in
  let version, rest =
    match fields with
    | Explicit (0, [ v ]) :: rest -> (
        match int_of_integer v with Some n -> (n, rest) | None -> (2, rest))
    | rest -> (0, rest)
  in
  match rest with
  | Integer serial :: alg :: issuer :: Sequence [ nb; na ] :: subject :: spki :: rest ->
      parse_alg alg >>= fun sig_alg ->
      Dn.of_value issuer >>= fun issuer ->
      parse_time nb >>= fun not_before ->
      parse_time na >>= fun not_after ->
      Dn.of_value subject >>= fun subject ->
      (match spki with
      | Sequence [ key_alg; Bit_string (_, key) ] ->
          parse_alg key_alg >>= fun alg -> Ok { alg; key }
      | _ -> Error "bad SubjectPublicKeyInfo")
      >>= fun spki ->
      let extensions =
        List.find_map
          (function Explicit (3, [ Sequence exts ]) -> Some exts | _ -> None)
          rest
      in
      (match extensions with
      | None -> Ok []
      | Some exts ->
          List.fold_left
            (fun acc e ->
              acc >>= fun l ->
              Extension.of_value e >>= fun e -> Ok (e :: l))
            (Ok []) exts
          |> Result.map List.rev)
      >>= fun extensions ->
      Ok { version; serial; sig_alg; issuer; not_before; not_after; subject; spki; extensions }
  | _ -> Error "TBSCertificate: unexpected field layout"

(* Layout errors (right DER, wrong certificate shape) carry no offset;
   DER-level errors keep the reader's offset for triage. *)
let layout_err detail = Faults.Error.Decode_error { offset = None; detail }

let der_err (e : Asn1.Value.error) =
  Faults.Error.Decode_error { offset = Some e.offset; detail = e.reason }

let parse ?(config = Asn1.Value.strict) der =
  match Asn1.Value.decode ~config der with
  | Error e -> Error (der_err e)
  | Ok (Asn1.Value.Sequence [ tbs_v; alg_v; Asn1.Value.Bit_string (_, signature) ]) -> (
      (* The outer algorithm is validated, before the TBS, and dropped. *)
      Result.map_error layout_err
        ( parse_alg alg_v >>= fun _ ->
          match tbs_v with
          | Asn1.Value.Sequence fields -> parse_tbs_fields fields
          | _ -> Error "TBSCertificate must be a SEQUENCE" )
      >>= fun tbs ->
      (* Recover the exact TBS byte span from the outer encoding: the
         outer header's length octets tell where the TBS starts, and
         the TBS header's (validated by the decode above) where it
         ends. *)
      let header_len off =
        let l0 = Char.code der.[off + 1] in
        if l0 < 0x80 then 2 else 2 + (l0 land 0x7F)
      in
      let content_len off =
        let l0 = Char.code der.[off + 1] in
        if l0 < 0x80 then l0
        else begin
          let len = ref 0 in
          for i = 1 to l0 land 0x7F do
            len := (!len lsl 8) lor Char.code der.[off + 1 + i]
          done;
          !len
        end
      in
      let start = header_len 0 in
      let tbs_der = String.sub der start (header_len start + content_len start) in
      Ok { tbs; tbs_der; signature; der })
  | Ok _ -> Error (layout_err "Certificate must be SEQUENCE { tbs, alg, BIT STRING }")

let of_pem pem =
  match Pem.decode_certificate pem with
  | Error m -> Error (layout_err m)
  | Ok der -> parse der
let to_pem cert = Pem.encode_certificate cert.der

let raw_signature = raw_sign

(* Verification re-derives the issuer MAC key from the public key on
   every call; a corpus pass verifies thousands of certificates against
   the same handful of issuers, so the derived midstates are cached.
   The cache is per-domain (Domain.DLS) — no synchronization, safe
   under [Par]. *)
let verify_mac_cache : (string, Ucrypto.Sha256.hmac_key) Hashtbl.t Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let verify_mac public =
  let tbl = Domain.DLS.get verify_mac_cache in
  match Hashtbl.find_opt tbl public with
  | Some hk -> hk
  | None ->
      let hk = Ucrypto.Sha256.hmac_init (mock_secret public) in
      if Hashtbl.length tbl < 1024 then Hashtbl.add tbl public hk;
      hk

let verify_raw ~issuer_spki ~message ~signature =
  if Asn1.Oid.equal issuer_spki.alg Oids.mock_key then
    (* The mock scheme derives the MAC secret from the public key; this
       is NOT unforgeable and exists purely to bind signed bytes to an
       issuer identity in simulations (see DESIGN.md). *)
    String.equal signature
      (Ucrypto.Sha256.hmac_with (verify_mac issuer_spki.key) message)
  else if Asn1.Oid.equal issuer_spki.alg Oids.rsa_encryption then
    match Asn1.Value.decode issuer_spki.key with
    | Ok (Asn1.Value.Sequence [ Asn1.Value.Integer n; Asn1.Value.Integer e ]) ->
        let pub =
          { Ucrypto.Rsa.n = Ucrypto.Bignum.of_bytes_be n;
            e = Ucrypto.Bignum.of_bytes_be e }
        in
        Ucrypto.Rsa.verify pub ~msg:message ~signature
    | Ok _ | Error _ -> false
  else false

let verify ~issuer_spki cert =
  verify_raw ~issuer_spki ~message:cert.tbs_der ~signature:cert.signature

let self_spki cert = cert.tbs.spki

let validity_days cert =
  Asn1.Time.days_between (fst cert.tbs.not_before) (fst cert.tbs.not_after)

let is_valid_at cert t =
  Asn1.Time.(fst cert.tbs.not_before <= t) && Asn1.Time.(t <= fst cert.tbs.not_after)

let is_precertificate cert =
  Extension.find cert.tbs.extensions Extension.Oids.ct_poison <> None

let subject_cn cert =
  match Dn.get_text cert.tbs.subject Attr.Common_name with
  | [] -> None
  | cn :: _ -> Some cn

let san_dns_names cert =
  match Extension.find cert.tbs.extensions Extension.Oids.subject_alt_name with
  | None -> []
  | Some e -> (
      match Extension.parse_general_names e.Extension.value with
      | Error _ -> []
      | Ok gns ->
          List.filter_map
            (function General_name.Dns_name s -> Some s | _ -> None)
            gns)
