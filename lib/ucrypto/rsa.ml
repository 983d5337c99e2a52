type public = { n : Bignum.t; e : Bignum.t }
type key = { public : public; d : Bignum.t }

let e_65537 = Bignum.of_int 65537

let generate ?(bits = 256) g =
  let half = bits / 2 in
  let rec go () =
    let p = Bignum.random_prime g half in
    let q = Bignum.random_prime g (bits - half) in
    if Bignum.equal p q then go ()
    else begin
      let n = Bignum.mul p q in
      let phi = Bignum.mul (Bignum.sub p Bignum.one) (Bignum.sub q Bignum.one) in
      match Bignum.mod_inverse e_65537 phi with
      | None -> go ()
      | Some d -> { public = { n; e = e_65537 }; d }
    end
  in
  go ()

(* DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1). *)
let sha256_digest_info =
  "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20"

let emsa_pkcs1_v15 ~key_len msg =
  let t = sha256_digest_info ^ Sha256.digest msg in
  let t_len = String.length t in
  if key_len < t_len + 3 then
    (* Modulus shorter than the DigestInfo: degrade to a truncated
       digest-only payload so small demo keys still work. *)
    let d = Sha256.digest msg in
    "\x00\x01" ^ String.sub d 0 (max 0 (key_len - 3)) ^ "\x00" |> fun s ->
    String.sub s 0 (min (String.length s) key_len)
  else
    "\x00\x01" ^ String.make (key_len - t_len - 3) '\xFF' ^ "\x00" ^ t

let key_octets n = (Bignum.bit_length n + 7) / 8

let sign key msg =
  let key_len = key_octets key.public.n in
  let em = emsa_pkcs1_v15 ~key_len msg in
  let m = Bignum.of_bytes_be em in
  let s = Bignum.mod_pow ~base:m ~exp:key.d ~modulus:key.public.n in
  let raw = Bignum.to_bytes_be s in
  String.make (key_len - String.length raw) '\x00' ^ raw

let verify pub ~msg ~signature =
  let key_len = key_octets pub.n in
  if String.length signature <> key_len then false
  else begin
    let s = Bignum.of_bytes_be signature in
    if Bignum.compare s pub.n >= 0 then false
    else begin
      let m = Bignum.mod_pow ~base:s ~exp:pub.e ~modulus:pub.n in
      let raw = Bignum.to_bytes_be m in
      let em = String.make (key_len - String.length raw) '\x00' ^ raw in
      String.equal em (emsa_pkcs1_v15 ~key_len msg)
    end
  end

let public_to_der pub =
  Asn1.Writer.sequence
    [ Asn1.Writer.integer_bytes (Bignum.to_bytes_be pub.n);
      Asn1.Writer.integer_bytes (Bignum.to_bytes_be pub.e) ]
