(* Tests for the crypto substrate: SHA-256, HMAC, PRNG, bignum, RSA. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_sha256_vectors () =
  check Alcotest.string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Ucrypto.Sha256.hex "");
  check Alcotest.string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Ucrypto.Sha256.hex "abc");
  check Alcotest.string "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Ucrypto.Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  (* Padding boundaries: 55 bytes is the longest message whose length
     fits its last block, 56 the shortest that needs another; 64 and
     120 end exactly on a block or on the length field of a second
     one.  Expected values from sha256sum over n bytes of 'a'. *)
  List.iter
    (fun (n, want) ->
      check Alcotest.string
        (Printf.sprintf "%d bytes" n)
        want
        (Ucrypto.Sha256.hex (String.make n 'a')))
    [
      (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
      (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
      (119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb");
      (120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c");
    ];
  (* FIPS 180-4 long-message vector. *)
  check Alcotest.string "one million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Ucrypto.Sha256.hex (String.make 1_000_000 'a'));
  check Alcotest.int "digest length" 32 (String.length (Ucrypto.Sha256.digest "x"))

(* [update] [ctx] with [msg] cut into pieces of the lengths [cuts]. *)
let feed_chunks ctx msg cuts =
  let rec go pos = function
    | [] -> Ucrypto.Sha256.update ctx (String.sub msg pos (String.length msg - pos))
    | c :: rest ->
        let c = min c (String.length msg - pos) in
        Ucrypto.Sha256.update ctx (String.sub msg pos c);
        go (pos + c) rest
  in
  go 0 cuts

(* Streaming a message through [update] in arbitrary chunks must give
   [digest] of the whole: every split point exercises the partial-block
   buffer. *)
let prop_sha256_chunked =
  QCheck.Test.make ~name:"sha256 init/update over any chunking = digest"
    ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 300)) (list (int_range 0 80)))
    (fun (msg, cuts) ->
      let ctx = Ucrypto.Sha256.init () in
      feed_chunks ctx msg cuts;
      String.equal (Ucrypto.Sha256.final ctx) (Ucrypto.Sha256.digest msg))

(* The precomputed-midstate MAC against RFC 2104 spelled out over
   [digest]; keys up to 150 bytes cover the hashed-key branch. *)
let prop_hmac_with =
  let reference ~key msg =
    let key = if String.length key > 64 then Ucrypto.Sha256.digest key else key in
    let pad p =
      String.init 64 (fun i ->
          Char.chr ((if i < String.length key then Char.code key.[i] else 0) lxor p))
    in
    Ucrypto.Sha256.digest (pad 0x5c ^ Ucrypto.Sha256.digest (pad 0x36 ^ msg))
  in
  QCheck.Test.make ~name:"hmac_with (hmac_init k) = hmac ~key:k" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 150)) (string_of_size (Gen.int_range 0 200)))
    (fun (key, msg) ->
      let want = reference ~key msg in
      String.equal (Ucrypto.Sha256.hmac_with (Ucrypto.Sha256.hmac_init key) msg) want
      && String.equal (Ucrypto.Sha256.hmac ~key msg) want)

(* --- the two compression kernels ------------------------------------- *)

let sha256_iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* FIPS 180-4 padding spelled out, with the message placed [off] bytes
   into a string of junk so the kernel reads at an unaligned offset;
   returns the digest [blocks] computes. *)
let digest_via blocks ~off msg =
  let len = String.length msg in
  let padded = ((len + 9 + 63) / 64) * 64 in
  let b = Bytes.make (off + padded + 7) '\xa5' in
  Bytes.blit_string msg 0 b off len;
  Bytes.set b (off + len) '\x80';
  Bytes.fill b (off + len + 1) (padded - len - 9) '\000';
  Bytes.set_int64_be b (off + padded - 8) (Int64.of_int (len * 8));
  let h = Array.copy sha256_iv in
  blocks h (Bytes.to_string b) off (padded / 64);
  String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))

let prop_kernels_agree =
  QCheck.Test.make ~name:"sha-ni and portable kernels agree" ~count:500
    QCheck.(
      triple (string_of_size (Gen.int_range 0 300)) (int_range 0 15)
        (list (int_range 0 80)))
    (fun (msg, off, cuts) ->
      let open Ucrypto.Sha256.Private in
      let want = digest_via blocks_portable ~off msg in
      let ctx = Ucrypto.Sha256.init () in
      feed_chunks ctx msg cuts;
      String.equal (digest_via blocks_accel ~off msg) want
      && String.equal (Ucrypto.Sha256.final ctx) want
      && String.equal (Ucrypto.Sha256.digest msg) want)

let test_kernels_agree () =
  if Ucrypto.Sha256.Private.accel_available then
    QCheck.Test.check_exn prop_kernels_agree
  else print_endline "skipped: this CPU has no SHA-NI, only the portable kernel runs"

let test_kernel_name () =
  check Alcotest.string "kernel names the selected path"
    (if Ucrypto.Sha256.Private.accel_available then "sha-ni" else "portable")
    (Ucrypto.Sha256.kernel ());
  (* The portable kernel on its own still meets FIPS 180-4. *)
  check Alcotest.string "portable abc"
    (Ucrypto.Sha256.digest "abc")
    (digest_via Ucrypto.Sha256.Private.blocks_portable ~off:3 "abc");
  check Alcotest.bool "range outside the string rejected" true
    (try
       Ucrypto.Sha256.Private.blocks_portable (Array.copy sha256_iv)
         (String.make 64 'x') 1 1;
       false
     with Invalid_argument _ -> true)

(* Slice entries hash exactly the bytes [String.sub] would copy. *)
let prop_digest_sub =
  QCheck.Test.make ~name:"digest_sub/hex_sub/update_sub = over String.sub"
    ~count:300
    QCheck.(triple (string_of_size (Gen.int_range 0 300)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = a mod (n + 1) in
      let len = b mod (n - off + 1) in
      let sub = String.sub s off len in
      let ctx = Ucrypto.Sha256.init () in
      Ucrypto.Sha256.update ctx "prefix";
      Ucrypto.Sha256.update_sub ctx s ~off ~len;
      String.equal (Ucrypto.Sha256.digest_sub s ~off ~len) (Ucrypto.Sha256.digest sub)
      && String.equal (Ucrypto.Sha256.hex_sub s ~off ~len) (Ucrypto.Sha256.hex sub)
      && String.equal (Ucrypto.Sha256.final ctx) (Ucrypto.Sha256.digest ("prefix" ^ sub)))

let test_digest_sub_bounds () =
  List.iter
    (fun (off, len) ->
      check Alcotest.bool (Printf.sprintf "off %d len %d rejected" off len) true
        (try ignore (Ucrypto.Sha256.digest_sub "abcdef" ~off ~len); false
         with Invalid_argument _ -> true))
    [ (-1, 2); (0, 7); (4, 3); (2, -1); (7, 0) ];
  check Alcotest.string "empty slice at the end" (Ucrypto.Sha256.digest "")
    (Ucrypto.Sha256.digest_sub "abcdef" ~off:6 ~len:0)

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_hmac_vectors () =
  (* RFC 4231 test cases 1 and 2. *)
  check Alcotest.string "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Ucrypto.Sha256.hmac ~key:(String.make 20 '\x0b') "Hi There"));
  check Alcotest.string "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Ucrypto.Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"));
  (* Long key forces the hashing branch. *)
  let long_key = String.make 131 '\xaa' in
  check Alcotest.string "tc7 (long key)"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (hex
       (Ucrypto.Sha256.hmac ~key:long_key
          "This is a test using a larger than block-size key and a larger than \
           block-size data. The key needs to be hashed before being used by the \
           HMAC algorithm."))

let test_prng_determinism () =
  let a = Ucrypto.Prng.create 42 and b = Ucrypto.Prng.create 42 in
  for _ = 1 to 50 do
    check Alcotest.int "same stream" (Ucrypto.Prng.int a 1000) (Ucrypto.Prng.int b 1000)
  done;
  let c = Ucrypto.Prng.create 43 in
  let same = ref 0 in
  for _ = 1 to 50 do
    let x = Ucrypto.Prng.int a 1000000 and y = Ucrypto.Prng.int c 1000000 in
    if x = y then incr same
  done;
  check Alcotest.bool "different seeds diverge" true (!same < 5)

let test_prng_ranges () =
  let g = Ucrypto.Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Ucrypto.Prng.int g 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of range: %d" v;
    let f = Ucrypto.Prng.float g in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done;
  let w = Ucrypto.Prng.weighted g [ ("a", 1.0); ("b", 0.0) ] in
  check Alcotest.string "zero weight never picked" "a" w

let bn = Ucrypto.Bignum.of_int
let bn_testable = Alcotest.testable (fun ppf v -> Format.fprintf ppf "%s" (Ucrypto.Hex.encode (Ucrypto.Bignum.to_bytes_be v))) Ucrypto.Bignum.equal

let test_bignum_basic () =
  let open Ucrypto.Bignum in
  check bn_testable "add" (bn 500) (add (bn 123) (bn 377));
  check bn_testable "sub" (bn 123) (sub (bn 500) (bn 377));
  check bn_testable "mul" (bn 56088) (mul (bn 123) (bn 456));
  check Alcotest.int "bit length" 10 (bit_length (bn 1023));
  check Alcotest.int "bit length 1024" 11 (bit_length (bn 1024));
  check bn_testable "shift left" (bn 40) (shift_left (bn 5) 3);
  check bn_testable "shift right" (bn 5) (shift_right (bn 40) 3);
  check Alcotest.bool "sub negative raises" true
    (try ignore (sub (bn 1) (bn 2)); false with Invalid_argument _ -> true)

let test_bignum_bytes () =
  let open Ucrypto.Bignum in
  check Alcotest.string "to bytes" "\x01\x00" (to_bytes_be (bn 256));
  check bn_testable "of bytes" (bn 65535) (of_bytes_be "\xFF\xFF")

let small_nat = QCheck.map (fun n -> abs n) QCheck.int

let prop_divmod =
  QCheck.Test.make ~name:"divmod law" ~count:500
    (QCheck.pair small_nat QCheck.(int_range 1 1_000_000))
    (fun (a, b) ->
      let open Ucrypto.Bignum in
      let a = bn a and b = bn b in
      let q, r = divmod a b in
      equal (add (mul q b) r) a && compare r b < 0)

let prop_mod_pow =
  QCheck.Test.make ~name:"mod_pow vs naive" ~count:100
    QCheck.(triple (int_range 0 1000) (int_range 0 40) (int_range 2 1000))
    (fun (b, e, m) ->
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * b mod m
      done;
      let got =
        Ucrypto.Bignum.mod_pow ~base:(bn b) ~exp:(bn e) ~modulus:(bn m)
      in
      Ucrypto.Bignum.equal got (bn !naive))

let prop_mod_inverse =
  QCheck.Test.make ~name:"mod_inverse" ~count:200
    QCheck.(pair (int_range 1 10000) (int_range 2 10000))
    (fun (a, m) ->
      match Ucrypto.Bignum.mod_inverse (bn a) (bn m) with
      | None ->
          (* gcd must be > 1 *)
          let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
          gcd a m > 1
      | Some inv ->
          Ucrypto.Bignum.equal
            (Ucrypto.Bignum.rem (Ucrypto.Bignum.mul (bn a) inv) (bn m))
            (bn 1))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bignum bytes roundtrip" ~count:300 small_nat (fun n ->
      Ucrypto.Bignum.equal
        (Ucrypto.Bignum.of_bytes_be (Ucrypto.Bignum.to_bytes_be (bn n)))
        (bn n))

let test_primality () =
  let g = Ucrypto.Prng.create 11 in
  List.iter
    (fun p ->
      check Alcotest.bool (string_of_int p) true
        (Ucrypto.Bignum.is_probable_prime g (bn p)))
    [ 2; 3; 5; 7; 97; 101; 7919; 104729 ];
  List.iter
    (fun n ->
      check Alcotest.bool (string_of_int n) false
        (Ucrypto.Bignum.is_probable_prime g (bn n)))
    [ 1; 4; 100; 561 (* Carmichael *); 7917; 104730 ]

let test_rsa () =
  let g = Ucrypto.Prng.create 5 in
  let key = Ucrypto.Rsa.generate ~bits:192 g in
  let s = Ucrypto.Rsa.sign key "the quick brown fox" in
  check Alcotest.bool "verifies" true
    (Ucrypto.Rsa.verify key.Ucrypto.Rsa.public ~msg:"the quick brown fox" ~signature:s);
  check Alcotest.bool "tampered message" false
    (Ucrypto.Rsa.verify key.Ucrypto.Rsa.public ~msg:"the quick brown fix" ~signature:s);
  let s' = Bytes.of_string s in
  Bytes.set s' 0 (Char.chr (Char.code (Bytes.get s' 0) lxor 1));
  check Alcotest.bool "tampered signature" false
    (Ucrypto.Rsa.verify key.Ucrypto.Rsa.public ~msg:"the quick brown fox"
       ~signature:(Bytes.to_string s'));
  (* another key does not verify *)
  let other = Ucrypto.Rsa.generate ~bits:192 g in
  check Alcotest.bool "wrong key" false
    (Ucrypto.Rsa.verify other.Ucrypto.Rsa.public ~msg:"the quick brown fox" ~signature:s)

(* The offset form decodes exactly what [decode] decodes of the suffix
   [String.sub] would copy, mostly-hex strings included so that both
   outcomes are drawn. *)
let hex_chars = List.of_seq (String.to_seq "0123456789abcdefABCDEF")

let prop_hex_decode_from =
  QCheck.Test.make ~name:"Hex.decode_from = decode over String.sub" ~count:500
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_range 0 40)
           Gen.(frequency [ (8, oneofl hex_chars); (1, char) ]))
        small_nat)
    (fun (s, a) ->
      let pos = a mod (String.length s + 1) in
      Ucrypto.Hex.decode_from s ~pos
      = Ucrypto.Hex.decode (String.sub s pos (String.length s - pos)))

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"shift left/right inverse" ~count:300
    QCheck.(pair small_nat (int_range 0 200))
    (fun (n, k) ->
      let v = bn n in
      Ucrypto.Bignum.equal (Ucrypto.Bignum.shift_right (Ucrypto.Bignum.shift_left v k) k) v)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "hmac-sha256 vectors" `Quick test_hmac_vectors;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "bignum basics" `Quick test_bignum_basic;
    Alcotest.test_case "bignum bytes" `Quick test_bignum_bytes;
    Alcotest.test_case "miller-rabin" `Quick test_primality;
    Alcotest.test_case "rsa sign/verify" `Slow test_rsa;
    qtest prop_sha256_chunked;
    qtest prop_hmac_with;
    qtest prop_shift_roundtrip;
    qtest prop_divmod;
    qtest prop_mod_pow;
    qtest prop_mod_inverse;
    qtest prop_bytes_roundtrip;
    Alcotest.test_case "sha256 kernels agree" `Quick test_kernels_agree;
    Alcotest.test_case "sha256 kernel name" `Quick test_kernel_name;
    qtest prop_digest_sub;
    Alcotest.test_case "sha256 slice bounds" `Quick test_digest_sub_bounds;
    qtest prop_hex_decode_from;
  ]
