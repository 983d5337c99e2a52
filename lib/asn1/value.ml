type t =
  | Boolean of bool
  | Integer of string
  | Bit_string of int * string
  | Octet_string of string
  | Null
  | Oid of Oid.t
  | Str of Str_type.t * string
  | Utc_time of string
  | Generalized_time of string
  | Sequence of t list
  | Set of t list
  | Implicit of int * string
  | Explicit of int * t list

type error = { offset : int; reason : string }

let pp_error ppf e = Format.fprintf ppf "offset %d: %s" e.offset e.reason

type config = { forbid_nonminimal_length : bool; max_depth : int }

let strict = { forbid_nonminimal_length = true; max_depth = 64 }
let lenient = { forbid_nonminimal_length = false; max_depth = 64 }

(* Single-buffer DER emission.  A bottom-up pass sizes every node, then
   identifier, length and content are written straight into one
   [Bytes] — nested content is copied exactly once, not once per
   enclosing constructor as the naive concat encoder did.  Leaf content
   is a [pre ^ body] pair so BIT STRINGs need no intermediate string
   either. *)

type enc =
  | E_leaf of { tag : int; pre : string; body : string }
  | E_node of { tag : int; len : int; children : enc list }

let len_octets n =
  if n < 0x80 then 1
  else begin
    let rec count n acc = if n = 0 then acc else count (n lsr 8) (acc + 1) in
    1 + count n 0
  end

let enc_size = function
  | E_leaf { pre; body; _ } ->
      let l = String.length pre + String.length body in
      1 + len_octets l + l
  | E_node { len; _ } -> 1 + len_octets len + len

let check_tag what n =
  if n > 30 then
    invalid_arg (Printf.sprintf "Value.encode: multi-byte %s tags unsupported" what)

let rec plan v =
  match v with
  | Boolean b -> E_leaf { tag = 0x01; pre = ""; body = (if b then "\xFF" else "\x00") }
  (* Integer content octets are authoritative (two's complement); they
     are emitted verbatim rather than re-normalized as unsigned, which
     would corrupt negative values. *)
  | Integer bytes ->
      E_leaf { tag = 0x02; pre = ""; body = (if bytes = "" then "\x00" else bytes) }
  | Bit_string (unused, s) ->
      E_leaf { tag = 0x03; pre = String.make 1 (Char.chr unused); body = s }
  | Octet_string s -> E_leaf { tag = 0x04; pre = ""; body = s }
  | Null -> E_leaf { tag = 0x05; pre = ""; body = "" }
  | Oid o -> E_leaf { tag = 0x06; pre = ""; body = Oid.encode o }
  | Str (st, raw) -> E_leaf { tag = Str_type.tag st; pre = ""; body = raw }
  | Utc_time s -> E_leaf { tag = 23; pre = ""; body = s }
  | Generalized_time s -> E_leaf { tag = 24; pre = ""; body = s }
  | Sequence vs -> node 0x30 (List.map plan vs)
  | Set vs -> node 0x31 (List.map plan vs)
  | Implicit (n, raw) ->
      check_tag "context" n;
      E_leaf { tag = 0x80 lor n; pre = ""; body = raw }
  | Explicit (n, vs) ->
      check_tag "context" n;
      node (0xA0 lor n) (List.map plan vs)

and node tag children =
  let len = List.fold_left (fun acc c -> acc + enc_size c) 0 children in
  E_node { tag; len; children }

let write_len b pos n =
  if n < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    let rec count n acc = if n = 0 then acc else count (n lsr 8) (acc + 1) in
    let c = count n 0 in
    Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor c));
    for i = 1 to c do
      Bytes.unsafe_set b (pos + i) (Char.unsafe_chr ((n lsr (8 * (c - i))) land 0xFF))
    done;
    pos + 1 + c
  end

let rec write b pos e =
  match e with
  | E_leaf { tag; pre; body } ->
      Bytes.unsafe_set b pos (Char.unsafe_chr tag);
      let pos = write_len b (pos + 1) (String.length pre + String.length body) in
      Bytes.blit_string pre 0 b pos (String.length pre);
      let pos = pos + String.length pre in
      Bytes.blit_string body 0 b pos (String.length body);
      pos + String.length body
  | E_node { tag; len; children } ->
      Bytes.unsafe_set b pos (Char.unsafe_chr tag);
      let pos = write_len b (pos + 1) len in
      List.fold_left (fun pos c -> write b pos c) pos children

let encode v =
  let e = plan v in
  let b = Bytes.create (enc_size e) in
  let _end : int = write b 0 e in
  Bytes.unsafe_to_string b

exception Fail of error

let fail offset reason = raise (Fail { offset; reason })

(* Parse identifier + length octets; returns
   (class, constructed, tag_number, content_offset, content_length).

   The parser walks the input in place: constructed nodes hand their
   children an (offset, stop) window into the original buffer instead
   of copying content out with [String.sub] at every nesting level.
   Reported error offsets stay relative to the nearest enclosing
   SEQUENCE/SET content — [base] is that content's start and [limit]
   its end, so diagnostics are identical to the copying parser's. *)
let header config ~base ~limit bytes offset =
  if offset >= limit then fail (offset - base) "truncated: no identifier octet";
  let id = Char.code bytes.[offset] in
  let cls = id lsr 6 in
  let constructed = id land 0x20 <> 0 in
  let tag = id land 0x1F in
  if tag = 0x1F then fail (offset - base) "multi-byte tags unsupported";
  let lpos = offset + 1 in
  if lpos >= limit then fail (lpos - base) "truncated: no length octet";
  let l0 = Char.code bytes.[lpos] in
  if l0 < 0x80 then (cls, constructed, tag, lpos + 1, l0)
  else if l0 = 0x80 then fail (lpos - base) "indefinite length not allowed in DER"
  else begin
    let count = l0 land 0x7F in
    if count > 4 then fail (lpos - base) "length too large";
    if lpos + count >= limit then fail (lpos - base) "truncated length octets";
    let len = ref 0 in
    for i = 1 to count do
      len := (!len lsl 8) lor Char.code bytes.[lpos + i]
    done;
    if config.forbid_nonminimal_length then begin
      if !len < 0x80 then fail (lpos - base) "non-minimal length encoding";
      if count > 1 && Char.code bytes.[lpos + 1] = 0 then
        fail (lpos - base) "non-minimal length encoding"
    end;
    (cls, constructed, tag, lpos + 1 + count, !len)
  end

let rec value config depth ~base ~limit bytes offset =
  if depth > config.max_depth then
    fail (offset - base) "maximum nesting depth exceeded";
  let cls, constructed, tag, coff, clen = header config ~base ~limit bytes offset in
  if coff + clen > limit then fail (coff - base) "content overruns input";
  let next = coff + clen in
  let parsed =
    match cls with
    | 0 -> universal config depth ~base constructed tag bytes coff clen
    | 2 ->
        if constructed then
          Explicit (tag, children config depth ~base ~limit bytes coff next)
        else Implicit (tag, String.sub bytes coff clen)
    | 1 | 3 -> fail (offset - base) "application/private class unsupported in X.509"
    | _ -> assert false
  in
  (parsed, next)

and universal config depth ~base constructed tag bytes coff clen =
  let rcoff = coff - base in
  match tag with
  | 1 ->
      if clen <> 1 then fail rcoff "BOOLEAN must be one octet"
      else Boolean (String.unsafe_get bytes coff <> '\x00')
  | 2 -> if clen = 0 then fail rcoff "empty INTEGER" else Integer (String.sub bytes coff clen)
  | 3 ->
      if clen = 0 then fail rcoff "BIT STRING missing unused-bits octet"
      else begin
        let unused = Char.code bytes.[coff] in
        if unused > 7 then fail rcoff "BIT STRING unused-bits octet > 7";
        if unused > 0 && clen = 1 then
          fail rcoff "BIT STRING with unused bits but no content";
        Bit_string (unused, String.sub bytes (coff + 1) (clen - 1))
      end
  | 4 -> Octet_string (String.sub bytes coff clen)
  | 5 -> if clen = 0 then Null else fail rcoff "NULL with content"
  | 6 -> (
      match Oid.decode (String.sub bytes coff clen) with
      | Ok o -> Oid o
      | Error m -> fail rcoff ("bad OID: " ^ m))
  | 16 ->
      if not constructed then fail rcoff "SEQUENCE must be constructed"
      else
        Sequence
          (children config depth ~base:coff ~limit:(coff + clen) bytes coff (coff + clen))
  | 17 ->
      if not constructed then fail rcoff "SET must be constructed"
      else
        Set (children config depth ~base:coff ~limit:(coff + clen) bytes coff (coff + clen))
  | 23 -> Utc_time (String.sub bytes coff clen)
  | 24 -> Generalized_time (String.sub bytes coff clen)
  | n -> (
      match Str_type.of_tag n with
      | Some st -> Str (st, String.sub bytes coff clen)
      | None -> fail rcoff (Printf.sprintf "unsupported universal tag %d" n))

and children config depth ~base ~limit bytes offset stop =
  let rec go offset acc =
    if offset = stop then List.rev acc
    else if offset > stop then fail (offset - base) "child overruns parent"
    else
      let v, next = value config (depth + 1) ~base ~limit bytes offset in
      go next (v :: acc)
  in
  go offset []

let decode_prefix ?(config = strict) bytes offset =
  try Ok (value config 0 ~base:0 ~limit:(String.length bytes) bytes offset)
  with Fail e -> Error e

let decode ?(config = strict) bytes =
  match decode_prefix ~config bytes 0 with
  | Error _ as e -> e
  | Ok (v, next) ->
      if next = String.length bytes then Ok v
      else Error { offset = next; reason = "trailing bytes after value" }

let int_of_integer = function
  | Integer bytes when String.length bytes <= 8 ->
      let v = ref (if Char.code bytes.[0] >= 0x80 then -1 else 0) in
      String.iter (fun c -> v := (!v lsl 8) lor Char.code c) bytes;
      Some !v
  | Integer _ -> None
  | Boolean _ | Bit_string _ | Octet_string _ | Null | Oid _ | Str _ | Utc_time _
  | Generalized_time _ | Sequence _ | Set _ | Implicit _ | Explicit _ ->
      None

let integer_of_int n =
  if n = 0 then Integer "\x00"
  else begin
    let rec bytes n acc =
      if n = 0 || n = -1 then acc else bytes (n asr 8) (Char.chr (n land 0xFF) :: acc)
    in
    let b = bytes n [] in
    let b = if b = [] then [ (if n < 0 then '\xFF' else '\x00') ] else b in
    let s = String.init (List.length b) (List.nth b) in
    let s =
      if n < 0 then if Char.code s.[0] < 0x80 then "\xFF" ^ s else s
      else if Char.code s.[0] >= 0x80 then "\x00" ^ s
      else s
    in
    Integer s
  end

let str_raw st bytes = Str (st, bytes)

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

let rec pp ppf v =
  match v with
  | Boolean b -> Format.fprintf ppf "BOOLEAN %b" b
  | Integer bytes -> Format.fprintf ppf "INTEGER 0x%s" (hex bytes)
  | Bit_string (u, s) -> Format.fprintf ppf "BIT STRING (%d unused) 0x%s" u (hex s)
  | Octet_string s -> Format.fprintf ppf "OCTET STRING 0x%s" (hex s)
  | Null -> Format.fprintf ppf "NULL"
  | Oid o -> Format.fprintf ppf "OID %s" (Oid.to_string o)
  | Str (st, raw) -> Format.fprintf ppf "%s %S" (Str_type.name st) raw
  | Utc_time s -> Format.fprintf ppf "UTCTime %S" s
  | Generalized_time s -> Format.fprintf ppf "GeneralizedTime %S" s
  | Sequence vs -> pp_group ppf "SEQUENCE" vs
  | Set vs -> pp_group ppf "SET" vs
  | Implicit (n, raw) -> Format.fprintf ppf "[%d] 0x%s" n (hex raw)
  | Explicit (n, vs) -> pp_group ppf (Printf.sprintf "[%d]" n) vs

and pp_group ppf label vs =
  Format.fprintf ppf "@[<v 2>%s {" label;
  List.iter (fun v -> Format.fprintf ppf "@,%a" pp v) vs;
  Format.fprintf ppf "@]@,}"
