(* FIPS 180-4 SHA-256.  The compression function is the C kernel in
   sha256_stubs.c; this module does the buffering, padding and HMAC.
   The chaining state is eight 32-bit words in an int array, so an
   [hmac_key] marshals as before. *)

external select : unit -> bool = "unicert_sha256_select" [@@noalloc]

(* [blocks h s off n] compresses the [n] 64-byte blocks of [s] starting
   at [off] into [h].  Unchecked: callers keep [off + 64 * n] within
   [s]. *)
external blocks : int array -> string -> int -> int -> unit
  = "unicert_sha256_blocks" [@@noalloc]

external blocks_portable : int array -> string -> int -> int -> unit
  = "unicert_sha256_blocks_portable" [@@noalloc]

external blocks_accel : int array -> string -> int -> int -> unit
  = "unicert_sha256_blocks_accel" [@@noalloc]

(* Runs once, before any other domain exists. *)
let accel = select ()

let kernel () = if accel then "sha-ni" else "portable"

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
            0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let[@inline] block_bytes h b = blocks h (Bytes.unsafe_to_string b) 0 1

(* Pad the [n] bytes pending in [buf] for a [total]-byte message,
   compress the last one or two blocks into [h] and return the digest. *)
let finish h buf n total =
  Bytes.unsafe_set buf n '\x80';
  let n = n + 1 in
  if n > 56 then begin
    Bytes.fill buf n (64 - n) '\000';
    block_bytes h buf;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf n (56 - n) '\000';
  let bits = total * 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set buf (63 - i) (Char.unsafe_chr ((bits lsr (8 * i)) land 0xFF))
  done;
  block_bytes h buf;
  let out = Bytes.create 32 in
  for i = 0 to 31 do
    let w = Array.unsafe_get h (i lsr 2) in
    Bytes.unsafe_set out i
      (Char.unsafe_chr ((w lsr (8 * (3 - (i land 3)))) land 0xFF))
  done;
  Bytes.unsafe_to_string out

type ctx = {
  h : int array;
  buf : Bytes.t;  (* pending partial block *)
  mutable n : int;      (* bytes pending in [buf] *)
  mutable total : int;  (* total message bytes absorbed *)
}

let init () = { h = Array.copy iv; buf = Bytes.create 64; n = 0; total = 0 }

let check_sub name s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg ("Ucrypto.Sha256." ^ name)

let update_sub ctx s ~off ~len =
  check_sub "update_sub" s off len;
  ctx.total <- ctx.total + len;
  let pos = ref off and stop = off + len in
  if ctx.n > 0 then begin
    let take = min (64 - ctx.n) len in
    Bytes.blit_string s off ctx.buf ctx.n take;
    ctx.n <- ctx.n + take;
    pos := off + take;
    if ctx.n = 64 then begin
      block_bytes ctx.h ctx.buf;
      ctx.n <- 0
    end
  end;
  let nblocks = (stop - !pos) / 64 in
  if nblocks > 0 then begin
    blocks ctx.h s !pos nblocks;
    pos := !pos + (64 * nblocks)
  end;
  if !pos < stop then begin
    Bytes.blit_string s !pos ctx.buf ctx.n (stop - !pos);
    ctx.n <- ctx.n + (stop - !pos)
  end

let update ctx s = update_sub ctx s ~off:0 ~len:(String.length s)

let final ctx = finish ctx.h ctx.buf ctx.n ctx.total

(* One shot: whole blocks straight from [s], the tail padded in a
   single 64-byte buffer. *)
let digest_sub s ~off ~len =
  check_sub "digest_sub" s off len;
  let h = Array.copy iv in
  let whole = len / 64 in
  if whole > 0 then blocks h s off whole;
  let rest = len - (64 * whole) in
  let buf = Bytes.create 64 in
  Bytes.blit_string s (off + (64 * whole)) buf 0 rest;
  finish h buf rest len

let digest s = digest_sub s ~off:0 ~len:(String.length s)

let to_hex = Hex.encode

let hex_sub s ~off ~len = to_hex (digest_sub s ~off ~len)
let hex s = to_hex (digest s)

(* HMAC with precomputable key midstates: the inner/outer pad blocks
   depend only on the key, so a reused key (every issuer signature)
   skips two of the compression calls per MAC. *)
type hmac_key = { inner : int array; outer : int array }

let hmac_init key =
  let key = if String.length key > 64 then digest key else key in
  let klen = String.length key in
  let state pad =
    let block =
      String.init 64 (fun i ->
          Char.chr ((if i < klen then Char.code key.[i] else 0) lxor pad))
    in
    let h = Array.copy iv in
    blocks h block 0 1;
    h
  in
  { inner = state 0x36; outer = state 0x5C }

let hmac_with hk msg =
  let ctx = { h = Array.copy hk.inner; buf = Bytes.create 64; n = 0; total = 64 } in
  update ctx msg;
  let inner_digest = final ctx in
  let h = Array.copy hk.outer in
  Bytes.blit_string inner_digest 0 ctx.buf 0 32;
  finish h ctx.buf 32 96

let hmac ~key msg = hmac_with (hmac_init key) msg

module Private = struct
  let accel_available = accel

  let checked name f h s off n =
    if Array.length h <> 8 || n < 0 || off < 0 || off > String.length s - (64 * n) then
      invalid_arg ("Ucrypto.Sha256.Private." ^ name);
    f h s off n

  let blocks_portable = checked "blocks_portable" blocks_portable

  let blocks_accel h s off n =
    if not accel then invalid_arg "Ucrypto.Sha256.Private.blocks_accel: no SHA-NI";
    checked "blocks_accel" blocks_accel h s off n
end
