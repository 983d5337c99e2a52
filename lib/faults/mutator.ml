type kind =
  | Byte_flip
  | Length_lie
  | Truncate
  | Tag_swap
  | Dup_tlv
  | Del_tlv
  | Oversized_oid
  | Nul_inject
  | Ctrl_inject

let all_kinds =
  [ Byte_flip; Length_lie; Truncate; Tag_swap; Dup_tlv; Del_tlv; Oversized_oid;
    Nul_inject; Ctrl_inject ]

let kind_name = function
  | Byte_flip -> "byte_flip"
  | Length_lie -> "length_lie"
  | Truncate -> "truncate"
  | Tag_swap -> "tag_swap"
  | Dup_tlv -> "dup_tlv"
  | Del_tlv -> "del_tlv"
  | Oversized_oid -> "oversized_oid"
  | Nul_inject -> "nul_inject"
  | Ctrl_inject -> "ctrl_inject"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

type plan = { seed : int; rate : float; kinds : kind list }

let plan ?(kinds = all_kinds) ~seed ~rate () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Faults.Mutator.plan: rate must be within [0,1]";
  if kinds = [] then invalid_arg "Faults.Mutator.plan: kinds must be non-empty";
  { seed; rate; kinds }

(* One independent stream per (seed, index, attempt): the splitmix
   construction behind Prng.create scrambles any int seed, so a cheap
   odd-multiplier mix suffices to separate the streams. *)
let stream seed index attempt =
  Ucrypto.Prng.create
    (((seed * 0x9E3779B1) lxor (index * 0x85EBCA77)) lxor (attempt * 0xC2B2AE3D))

let hits plan index =
  plan.rate > 0.0 && Ucrypto.Prng.float (stream plan.seed index 0) < plan.rate

let set_byte s i b =
  let out = Bytes.of_string s in
  Bytes.set out i (Char.chr (b land 0xFF));
  Bytes.unsafe_to_string out

(* The positions [i] in [0, last] that [hit] accepts, highest first:
   the order the kernels' draws index into. *)
let spots_desc hit last =
  let n = ref 0 in
  for i = 0 to last do
    if hit i then incr n
  done;
  let arr = Array.make !n 0 in
  let k = ref 0 in
  for i = last downto 0 do
    if hit i then begin
      arr.(!k) <- i;
      incr k
    end
  done;
  arr

let byte_flip g s =
  let i = Ucrypto.Prng.int g (String.length s) in
  let bit = 1 lsl Ucrypto.Prng.int g 8 in
  set_byte s i (Char.code s.[i] lxor bit)

(* Misdeclare the outermost length: short form gets a different short
   value, long form gets one of its octets rewritten. *)
let length_lie g s =
  let n = String.length s in
  if n < 4 then byte_flip g s
  else begin
    let l0 = Char.code s.[1] in
    if l0 < 0x80 then set_byte s 1 ((l0 + 1 + Ucrypto.Prng.int g 126) mod 0x80)
    else begin
      let count = l0 land 0x7F in
      if count = 0 || 2 + count > n then byte_flip g s
      else begin
        let i = 2 + Ucrypto.Prng.int g count in
        set_byte s i (Char.code s.[i] lxor (1 + Ucrypto.Prng.int g 255))
      end
    end
  end

let truncate g s =
  let n = String.length s in
  if n <= 1 then s ^ "\x30" (* can't shorten a 1-byte input; grow a lie *)
  else String.sub s 0 (1 + Ucrypto.Prng.int g (n - 1))

(* Tag bytes commonly present in a certificate, with a substitute that
   changes the parse shape. *)
let tag_swaps =
  [ (0x30, 0x31); (0x31, 0x30); (0x0C, 0x13); (0x13, 0x16); (0x16, 0x0C);
    (0x02, 0x03); (0x03, 0x02); (0x04, 0x05); (0x06, 0x02); (0x17, 0x18);
    (0x18, 0x17); (0xA0, 0x80); (0xA3, 0x83) ]

(* byte -> its substitute, or -1 *)
let tag_swap_table =
  let t = Array.make 256 (-1) in
  List.iter (fun (a, b) -> t.(a) <- b) tag_swaps;
  t

let tag_swap g s =
  let code i = Char.code s.[i] in
  let arr = spots_desc (fun i -> tag_swap_table.(code i) >= 0) (String.length s - 1) in
  if Array.length arr = 0 then byte_flip g s
  else
    let i = arr.(Ucrypto.Prng.int g (Array.length arr)) in
    set_byte s i tag_swap_table.(code i)

(* Best-effort TLV slice at [off]: read a short- or long-form header
   and return the full TLV span when it fits inside [s]. *)
let tlv_at s off =
  let n = String.length s in
  if off + 2 > n then None
  else begin
    let l0 = Char.code s.[off + 1] in
    if l0 < 0x80 then
      let stop = off + 2 + l0 in
      if stop <= n && l0 > 0 then Some (off, stop) else None
    else begin
      let count = l0 land 0x7F in
      if count = 0 || count > 3 || off + 2 + count > n then None
      else begin
        let len = ref 0 in
        for i = 1 to count do
          len := (!len lsl 8) lor Char.code s.[off + 1 + i]
        done;
        let stop = off + 2 + count + !len in
        if stop <= n then Some (off, stop) else None
      end
    end
  end

let random_tlv g s =
  let n = String.length s in
  let rec go tries =
    if tries = 0 then None
    else
      match tlv_at s (2 + Ucrypto.Prng.int g (max 1 (n - 2))) with
      | Some (a, b) when b - a < n -> Some (a, b)
      | _ -> go (tries - 1)
  in
  go 16

let dup_tlv g s =
  match random_tlv g s with
  | Some (a, b) ->
      String.sub s 0 b ^ String.sub s a (b - a)
      ^ String.sub s b (String.length s - b)
  | None ->
      (* No parseable inner TLV: duplicate a raw slice instead. *)
      let n = String.length s in
      let a = Ucrypto.Prng.int g n in
      let len = 1 + Ucrypto.Prng.int g (min 16 (n - a)) in
      String.sub s 0 (a + len) ^ String.sub s a len
      ^ String.sub s (a + len) (n - a - len)

let del_tlv g s =
  match random_tlv g s with
  | Some (a, b) -> String.sub s 0 a ^ String.sub s b (String.length s - b)
  | None ->
      let n = String.length s in
      if n <= 2 then truncate g s
      else begin
        let a = 1 + Ucrypto.Prng.int g (n - 2) in
        let len = 1 + Ucrypto.Prng.int g (min 8 (n - a - 1)) in
        String.sub s 0 a ^ String.sub s (a + len) (n - a - len)
      end

(* Rewrite one OID's content octets in place: either arcs that never
   terminate (every continuation bit set) or one gigantic arc that
   overflows any bounded decoder. *)
let oversized_oid g s =
  let n = String.length s in
  let spots = ref [] in
  for i = 0 to n - 3 do
    if Char.code s.[i] = 0x06 then begin
      let len = Char.code s.[i + 1] in
      if len >= 1 && len < 0x80 && i + 2 + len <= n then spots := (i, len) :: !spots
    end
  done;
  match !spots with
  | [] -> byte_flip g s
  | l ->
      let arr = Array.of_list l in
      let i, len = arr.(Ucrypto.Prng.int g (Array.length arr)) in
      let filler =
        if len >= 2 && Ucrypto.Prng.bool g then
          (* one huge arc: continuation bytes then a terminator *)
          String.make (len - 1) '\x8F' ^ "\x7F"
        else String.make len '\xFF'
      in
      String.sub s 0 (i + 2) ^ filler ^ String.sub s (i + 2 + len) (n - i - 2 - len)

(* Universal tags of the ASN.1 string types: the targets of the two
   string-content injection kinds. *)
let string_tags = [ 0x0C; 0x12; 0x13; 0x14; 0x16; 0x1A; 0x1C; 0x1E ]

let is_string_tag =
  let t = Array.make 256 false in
  List.iter (fun b -> t.(b) <- true) string_tags;
  t

(* Overwrite one content byte of a string-typed TLV: the DER skeleton
   stays well formed, so the cert still parses and the poisoned text
   flows into every downstream consumer — the NUL-truncation /
   control-character surface the fuzzer steers into. *)
let overwrite_in_string g byte_of s =
  let n = String.length s in
  let code i = Char.code s.[i] in
  let arr =
    spots_desc
      (fun i ->
        is_string_tag.(code i)
        &&
        let len = code (i + 1) in
        len >= 1 && len < 0x80 && i + 2 + len <= n)
      (n - 3)
  in
  if Array.length arr = 0 then byte_flip g s
  else
    let i = arr.(Ucrypto.Prng.int g (Array.length arr)) in
    set_byte s (i + 2 + Ucrypto.Prng.int g (code (i + 1))) (byte_of g)

let nul_inject g s = overwrite_in_string g (fun _ -> 0x00) s
let ctrl_inject g s = overwrite_in_string g (fun g -> 1 + Ucrypto.Prng.int g 0x1F) s

let apply g kind s =
  match kind with
  | Byte_flip -> byte_flip g s
  | Length_lie -> length_lie g s
  | Truncate -> truncate g s
  | Tag_swap -> tag_swap g s
  | Dup_tlv -> dup_tlv g s
  | Del_tlv -> del_tlv g s
  | Oversized_oid -> oversized_oid g s
  | Nul_inject -> nul_inject g s
  | Ctrl_inject -> ctrl_inject g s

let mutate ?(attempt = 0) plan ~index der =
  if der = "" then invalid_arg "Faults.Mutator.mutate: empty input";
  let g = stream plan.seed index (attempt + 1) in
  let kind = Ucrypto.Prng.pick_list g plan.kinds in
  let rec go kind tries =
    let out = apply g kind der in
    if String.equal out der && tries > 0 then go Byte_flip (tries - 1)
    else if String.equal out der then truncate g der
    else out
  in
  (go kind 3, kind)

type exhausted = { index : int; attempts : int }

let default_max_attempts = 9

(* The retry loop callers used to hand-roll around [mutate]: bump
   [attempt] until the mutant actually fails the caller's acceptance
   check.  Capped — an input that resists corruption surfaces a typed
   [exhausted] instead of looping (or asserting) forever.  The
   last-resort attempt cuts the encoding in half, which strict DER
   decoding rejects for any realistic certificate, so exhaustion is
   reachable only for degenerate inputs or tolerant [rejects]
   predicates. *)
let mutate_rejected ?(max_attempts = default_max_attempts) plan ~index ~rejects
    der =
  if max_attempts < 1 then
    invalid_arg "Faults.Mutator.mutate_rejected: max_attempts must be >= 1";
  let rec go attempt =
    if attempt >= max_attempts - 1 then begin
      let bad = String.sub der 0 (max 1 (String.length der / 2)) in
      match rejects bad with
      | Some err -> Ok (bad, Truncate, err)
      | None -> Error { index; attempts = max_attempts }
    end
    else
      let bad, kind = mutate ~attempt plan ~index der in
      match rejects bad with
      | Some err -> Ok (bad, kind, err)
      | None -> go (attempt + 1)
  in
  go 0
