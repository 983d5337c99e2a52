(* FIPS 180-4 SHA-256 over native ints (words live in the low 32 bits).

   The compression kernel is written for OCaml's 63-bit ints:
   - a rotation of a 32-bit word [x] is a right shift of [x] with a
     copy of itself in bits 32-62, so each Σ/σ is three shifts, two
     xors and one mask;
   - the rounds are unrolled by 8, and instead of shifting the eight
     working variables every round each round updates two of them in
     place and the next round reads them under rotated names;
   - ch is [g ^ (e & (f ^ g))] and maj is [b ^ ((a ^ b) & (b ^ c))],
     where [b ^ c] is the previous round's [a ^ b];
   - message words load as one 32-bit read plus a byte swap.
   Sums of a few words fit a 63-bit int, so only values that feed a
   shift or a boolean op are re-masked. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let mask = 0xFFFFFFFF

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
            0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* [x] must be a 32-bit word; [d] is [x lor (x lsl 32)]. *)
let[@inline] big_sigma0 d = ((d lsr 2) lxor (d lsr 13) lxor (d lsr 22)) land mask
let[@inline] big_sigma1 d = ((d lsr 6) lxor (d lsr 11) lxor (d lsr 25)) land mask
let[@inline] dup x = x lor (x lsl 32)

(* Message-schedule extension + 64 rounds over a preloaded 16-word
   prefix of [w].  [h] is updated in place. *)
let rounds h w =
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let d15 = dup w15 and d2 = dup w2 in
    let s0 = (d15 lsr 7) lxor (d15 lsr 18) lxor (w15 lsr 3) in
    let s1 = (d2 lsr 17) lxor (d2 lsr 19) lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
       land mask)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  (* [bc] is [b ^ c] for the round about to run. *)
  let bc = ref (!b lxor !c) in
  let t = ref 0 in
  while !t < 64 do
    let t0 = !t in
    (* Round i reads (a..h) rotated right by i and writes its d and h:
       d += t1; h = t1 + Σ0(a) + maj(a, b, c). *)
    (* 0: a b c d e f g h *)
    let t1 =
      !hh + big_sigma1 (dup !e) + (!g lxor (!e land (!f lxor !g)))
      + Array.unsafe_get k (t0 + 0) + Array.unsafe_get w (t0 + 0)
    in
    let ab = !a lxor !b in
    d := (!d + t1) land mask;
    hh := (t1 + big_sigma0 (dup !a) + (!b lxor (ab land !bc))) land mask;
    (* 1: h a b c d e f g *)
    let t1 =
      !g + big_sigma1 (dup !d) + (!f lxor (!d land (!e lxor !f)))
      + Array.unsafe_get k (t0 + 1) + Array.unsafe_get w (t0 + 1)
    in
    let bc' = !hh lxor !a in
    c := (!c + t1) land mask;
    g := (t1 + big_sigma0 (dup !hh) + (!a lxor (bc' land ab))) land mask;
    (* 2: g h a b c d e f *)
    let t1 =
      !f + big_sigma1 (dup !c) + (!e lxor (!c land (!d lxor !e)))
      + Array.unsafe_get k (t0 + 2) + Array.unsafe_get w (t0 + 2)
    in
    let ab = !g lxor !hh in
    b := (!b + t1) land mask;
    f := (t1 + big_sigma0 (dup !g) + (!hh lxor (ab land bc'))) land mask;
    (* 3: f g h a b c d e *)
    let t1 =
      !e + big_sigma1 (dup !b) + (!d lxor (!b land (!c lxor !d)))
      + Array.unsafe_get k (t0 + 3) + Array.unsafe_get w (t0 + 3)
    in
    let bc' = !f lxor !g in
    a := (!a + t1) land mask;
    e := (t1 + big_sigma0 (dup !f) + (!g lxor (bc' land ab))) land mask;
    (* 4: e f g h a b c d *)
    let t1 =
      !d + big_sigma1 (dup !a) + (!c lxor (!a land (!b lxor !c)))
      + Array.unsafe_get k (t0 + 4) + Array.unsafe_get w (t0 + 4)
    in
    let ab = !e lxor !f in
    hh := (!hh + t1) land mask;
    d := (t1 + big_sigma0 (dup !e) + (!f lxor (ab land bc'))) land mask;
    (* 5: d e f g h a b c *)
    let t1 =
      !c + big_sigma1 (dup !hh) + (!b lxor (!hh land (!a lxor !b)))
      + Array.unsafe_get k (t0 + 5) + Array.unsafe_get w (t0 + 5)
    in
    let bc' = !d lxor !e in
    g := (!g + t1) land mask;
    c := (t1 + big_sigma0 (dup !d) + (!e lxor (bc' land ab))) land mask;
    (* 6: c d e f g h a b *)
    let t1 =
      !b + big_sigma1 (dup !g) + (!a lxor (!g land (!hh lxor !a)))
      + Array.unsafe_get k (t0 + 6) + Array.unsafe_get w (t0 + 6)
    in
    let ab = !c lxor !d in
    f := (!f + t1) land mask;
    b := (t1 + big_sigma0 (dup !c) + (!d lxor (ab land bc'))) land mask;
    (* 7: b c d e f g h a *)
    let t1 =
      !a + big_sigma1 (dup !f) + (!hh lxor (!f land (!g lxor !hh)))
      + Array.unsafe_get k (t0 + 7) + Array.unsafe_get w (t0 + 7)
    in
    let bc' = !b lxor !c in
    e := (!e + t1) land mask;
    a := (t1 + big_sigma0 (dup !b) + (!c lxor (bc' land ab))) land mask;
    (* Back to a b c d e f g h; the next round's b ^ c is this a ^ b. *)
    bc := bc';
    t := t0 + 8
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask)

external string_get32u : string -> int -> int32 = "%caml_string_get32u"
external bytes_get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Big-endian 32-bit word from a native-endian read. *)
let[@inline] word v =
  Int32.to_int (if Sys.big_endian then v else bswap32 v) land mask

let[@inline] load_string w s base =
  for t = 0 to 15 do
    Array.unsafe_set w t (word (string_get32u s (base + (4 * t))))
  done

let[@inline] load_bytes w b base =
  for t = 0 to 15 do
    Array.unsafe_set w t (word (bytes_get32u b (base + (4 * t))))
  done

type ctx = {
  h : int array;
  buf : Bytes.t;  (* pending partial block *)
  w : int array;  (* scratch schedule *)
  mutable n : int;      (* bytes pending in [buf] *)
  mutable total : int;  (* total message bytes absorbed *)
}

let init () =
  { h = Array.copy iv; buf = Bytes.create 64; w = Array.make 64 0; n = 0;
    total = 0 }

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  if ctx.n > 0 then begin
    let take = min (64 - ctx.n) len in
    Bytes.blit_string s 0 ctx.buf ctx.n take;
    ctx.n <- ctx.n + take;
    pos := take;
    if ctx.n = 64 then begin
      load_bytes ctx.w ctx.buf 0;
      rounds ctx.h ctx.w;
      ctx.n <- 0
    end
  end;
  while len - !pos >= 64 do
    load_string ctx.w s !pos;
    rounds ctx.h ctx.w;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf ctx.n (len - !pos);
    ctx.n <- ctx.n + (len - !pos)
  end

let final ctx =
  let bits = ctx.total * 8 in
  Bytes.set ctx.buf ctx.n '\x80';
  let n = ctx.n + 1 in
  if n > 56 then begin
    Bytes.fill ctx.buf n (64 - n) '\000';
    load_bytes ctx.w ctx.buf 0;
    rounds ctx.h ctx.w;
    Bytes.fill ctx.buf 0 56 '\000'
  end
  else Bytes.fill ctx.buf n (56 - n) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.buf (63 - i) (Char.chr ((bits lsr (8 * i)) land 0xFF))
  done;
  load_bytes ctx.w ctx.buf 0;
  rounds ctx.h ctx.w;
  let h = ctx.h in
  String.init 32 (fun i ->
      Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))

let digest msg =
  let ctx = init () in
  update ctx msg;
  final ctx

let hex_digits = "0123456789abcdef"

let hex msg =
  let d = digest msg in
  let b = Bytes.create 64 in
  for i = 0 to 31 do
    let c = Char.code (String.unsafe_get d i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_digits (c land 0xf))
  done;
  Bytes.unsafe_to_string b

(* HMAC with precomputable key midstates: the inner/outer pad blocks
   depend only on the key, so a reused key (every issuer signature)
   skips two of the compression calls per MAC. *)
type hmac_key = { inner : int array; outer : int array }

let hmac_init key =
  let key = if String.length key > 64 then digest key else key in
  let klen = String.length key in
  let block pad =
    Bytes.init 64 (fun i ->
        Char.chr ((if i < klen then Char.code key.[i] else 0) lxor pad))
  in
  let w = Array.make 64 0 in
  let state pad =
    let h = Array.copy iv in
    load_bytes w (block pad) 0;
    rounds h w;
    h
  in
  { inner = state 0x36; outer = state 0x5C }

let hmac_with hk msg =
  let ctx =
    { h = Array.copy hk.inner; buf = Bytes.create 64; w = Array.make 64 0;
      n = 0; total = 64 }
  in
  update ctx msg;
  let inner_digest = final ctx in
  let octx =
    { h = Array.copy hk.outer; buf = Bytes.create 64; w = ctx.w; n = 0;
      total = 64 }
  in
  update octx inner_digest;
  final octx

let hmac ~key msg = hmac_with (hmac_init key) msg
