(* Tests for the fault layer: ASN.1 malformation rejection, the seeded
   corpus mutator, quarantine/checkpoint persistence, circuit breakers,
   the injection harness, the watchdog, and the pipeline error
   boundary (corrupt-vs-drop equality, degraded lints, resume). *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let sample_der =
  lazy
    (let der = ref "" in
     Ctlog.Dataset.iter ~scale:1 ~seed:42 (fun e ->
         der := e.Ctlog.Dataset.cert.X509.Certificate.der);
     !der)

let tmp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

(* --- ASN.1 malformation regressions ---------------------------------- *)

let test_oid_malformations () =
  let ok = Alcotest.(result (list int) string) in
  check ok "valid OID decodes" (Ok [ 1; 2; 840; 10045; 4; 3; 2 ])
    (Asn1.Oid.decode "\x2A\x86\x48\xCE\x3D\x04\x03\x02");
  check ok "oversized arc rejected" (Error "OID arc too long")
    (Asn1.Oid.decode (String.make 10 '\xFF' ^ "\x7F"));
  check ok "truncated arc rejected" (Error "truncated OID arc")
    (Asn1.Oid.decode "\x2A\x86");
  (* A trailing continuation byte whose pending value is zero used to be
     accepted as a complete arc. *)
  check ok "truncated zero-valued arc rejected" (Error "truncated OID arc")
    (Asn1.Oid.decode "\x2A\xC8");
  check ok "non-minimal arc rejected" (Error "non-minimal OID arc")
    (Asn1.Oid.decode "\x2A\x80\x01")

let test_bit_string_malformations () =
  let is_err der = Result.is_error (Asn1.Value.decode der) in
  check Alcotest.bool "valid BIT STRING" false (is_err "\x03\x02\x03\xA8");
  check Alcotest.bool "unused-bits > 7 rejected" true (is_err "\x03\x02\x08\x00");
  check Alcotest.bool "unused bits without content rejected" true
    (is_err "\x03\x01\x01")

let test_length_malformations () =
  let is_err der = Result.is_error (Asn1.Value.decode der) in
  check Alcotest.bool "declared length overruns input" true
    (is_err "\x30\x05\x02\x01\x01");
  check Alcotest.bool "truncated long-form length" true (is_err "\x02\x81");
  check Alcotest.bool "overlong length field" true
    (is_err "\x02\x85\x01\x01\x01\x01\x01\x01");
  check Alcotest.bool "huge declared length" true
    (is_err "\x04\x84\xFF\xFF\xFF\xFF")

(* --- the mutator ------------------------------------------------------ *)

let test_mutator_determinism () =
  let der = Lazy.force sample_der in
  let plan = Faults.Mutator.plan ~seed:9 ~rate:0.5 () in
  for index = 0 to 30 do
    check Alcotest.bool "hits is stable" (Faults.Mutator.hits plan index)
      (Faults.Mutator.hits plan index);
    let a, ka = Faults.Mutator.mutate plan ~index der in
    let b, kb = Faults.Mutator.mutate plan ~index der in
    check Alcotest.string "mutate is stable" a b;
    check Alcotest.string "kind is stable" (Faults.Mutator.kind_name ka)
      (Faults.Mutator.kind_name kb);
    check Alcotest.bool "never returns input unchanged" true (a <> der)
  done;
  (* Distinct attempts give independent corruptions (usually distinct). *)
  let a, _ = Faults.Mutator.mutate ~attempt:0 plan ~index:0 der in
  let b, _ = Faults.Mutator.mutate ~attempt:1 plan ~index:0 der in
  check Alcotest.bool "attempts are independent streams" true (a <> b || a <> der)

let test_mutator_rate () =
  let n = 4000 in
  let count rate =
    let plan = Faults.Mutator.plan ~seed:3 ~rate () in
    let c = ref 0 in
    for i = 0 to n - 1 do
      if Faults.Mutator.hits plan i then incr c
    done;
    !c
  in
  check Alcotest.int "rate 0 never hits" 0 (count 0.0);
  check Alcotest.int "rate 1 always hits" n (count 1.0);
  let c = count 0.2 in
  check Alcotest.bool
    (Printf.sprintf "rate 0.2 hits ~20%% (got %d/%d)" c n)
    true
    (c > n / 10 && c < (n * 3) / 10);
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Faults.Mutator.plan: rate must be within [0,1]")
    (fun () -> ignore (Faults.Mutator.plan ~seed:1 ~rate:1.5 ()));
  Alcotest.check_raises "empty kinds"
    (Invalid_argument "Faults.Mutator.plan: kinds must be non-empty") (fun () ->
      ignore (Faults.Mutator.plan ~kinds:[] ~seed:1 ~rate:0.5 ()))

let test_mutator_kinds () =
  let der = Lazy.force sample_der in
  let plan =
    Faults.Mutator.plan ~kinds:[ Faults.Mutator.Truncate ] ~seed:4 ~rate:1.0 ()
  in
  for index = 0 to 10 do
    let out, kind = Faults.Mutator.mutate plan ~index der in
    check Alcotest.string "restricted kind honoured" "truncate"
      (Faults.Mutator.kind_name kind);
    check Alcotest.bool "truncation shortens" true
      (String.length out < String.length der)
  done;
  List.iter
    (fun k ->
      check
        Alcotest.(option string)
        "kind_name/of_name roundtrip"
        (Some (Faults.Mutator.kind_name k))
        (Option.map Faults.Mutator.kind_name
           (Faults.Mutator.kind_of_name (Faults.Mutator.kind_name k))))
    Faults.Mutator.all_kinds

(* Parse totality: no mutation may make the strict parser raise; it
   must always come back with Ok or a typed Error. *)
let parse_totality =
  QCheck.Test.make ~name:"certificate parse is total under mutation" ~count:300
    QCheck.(pair (int_bound 500) (int_bound 7))
    (fun (index, attempt) ->
      let der = Lazy.force sample_der in
      let plan = Faults.Mutator.plan ~seed:77 ~rate:1.0 () in
      let corrupted, _ = Faults.Mutator.mutate ~attempt plan ~index der in
      match X509.Certificate.parse corrupted with
      | Ok _ | Error _ -> true)

(* The mutator's kernels as they were before their scans became
   256-entry tables and their byte writes one [Bytes] copy: the oracle
   the table-driven kernels must match draw for draw. *)
module Mutator_reference = struct
  open Faults.Mutator

  let stream seed index attempt =
    Ucrypto.Prng.create
      (((seed * 0x9E3779B1) lxor (index * 0x85EBCA77)) lxor (attempt * 0xC2B2AE3D))

  let set_byte s i b =
    String.mapi (fun j c -> if j = i then Char.chr (b land 0xFF) else c) s

  let byte_flip g s =
    let i = Ucrypto.Prng.int g (String.length s) in
    let bit = 1 lsl Ucrypto.Prng.int g 8 in
    set_byte s i (Char.code s.[i] lxor bit)

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
    if n <= 1 then s ^ "\x30"
    else String.sub s 0 (1 + Ucrypto.Prng.int g (n - 1))

  let tag_swaps =
    [ (0x30, 0x31); (0x31, 0x30); (0x0C, 0x13); (0x13, 0x16); (0x16, 0x0C);
      (0x02, 0x03); (0x03, 0x02); (0x04, 0x05); (0x06, 0x02); (0x17, 0x18);
      (0x18, 0x17); (0xA0, 0x80); (0xA3, 0x83) ]

  let tag_swap g s =
    let candidates = ref [] in
    String.iteri
      (fun i c ->
        if List.mem_assoc (Char.code c) tag_swaps then candidates := i :: !candidates)
      s;
    match !candidates with
    | [] -> byte_flip g s
    | l ->
        let arr = Array.of_list l in
        let i = arr.(Ucrypto.Prng.int g (Array.length arr)) in
        set_byte s i (List.assoc (Char.code s.[i]) tag_swaps)

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
        String.sub s 0 b ^ String.sub s a (b - a) ^ String.sub s b (String.length s - b)
    | None ->
        let n = String.length s in
        let a = Ucrypto.Prng.int g n in
        let len = 1 + Ucrypto.Prng.int g (min 16 (n - a)) in
        String.sub s 0 (a + len) ^ String.sub s a len ^ String.sub s (a + len) (n - a - len)

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
          if len >= 2 && Ucrypto.Prng.bool g then String.make (len - 1) '\x8F' ^ "\x7F"
          else String.make len '\xFF'
        in
        String.sub s 0 (i + 2) ^ filler ^ String.sub s (i + 2 + len) (n - i - 2 - len)

  let string_tags = [ 0x0C; 0x12; 0x13; 0x14; 0x16; 0x1A; 0x1C; 0x1E ]

  let overwrite_in_string g byte_of s =
    let n = String.length s in
    let spots = ref [] in
    for i = 0 to n - 3 do
      if List.mem (Char.code s.[i]) string_tags then begin
        let len = Char.code s.[i + 1] in
        if len >= 1 && len < 0x80 && i + 2 + len <= n then spots := (i, len) :: !spots
      end
    done;
    match !spots with
    | [] -> byte_flip g s
    | l ->
        let arr = Array.of_list l in
        let i, len = arr.(Ucrypto.Prng.int g (Array.length arr)) in
        set_byte s (i + 2 + Ucrypto.Prng.int g len) (byte_of g)

  let apply g kind s =
    match kind with
    | Byte_flip -> byte_flip g s
    | Length_lie -> length_lie g s
    | Truncate -> truncate g s
    | Tag_swap -> tag_swap g s
    | Dup_tlv -> dup_tlv g s
    | Del_tlv -> del_tlv g s
    | Oversized_oid -> oversized_oid g s
    | Nul_inject -> overwrite_in_string g (fun _ -> 0x00) s
    | Ctrl_inject -> overwrite_in_string g (fun g -> 1 + Ucrypto.Prng.int g 0x1F) s

  let mutate ~attempt ~kinds ~seed ~index der =
    let g = stream seed index (attempt + 1) in
    let kind = Ucrypto.Prng.pick_list g kinds in
    let rec go kind tries =
      let out = apply g kind der in
      if String.equal out der && tries > 0 then go Byte_flip (tries - 1)
      else if String.equal out der then truncate g der
      else out
    in
    (go kind 3, kind)
end

(* Inputs rich in what the kernels look for: tag bytes, string tags and
   short lengths, mixed with arbitrary bytes and the sample certificate. *)
let mutator_input =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (3, map Char.chr (int_bound 255));
        (2, map Char.chr (oneofl [ 0x30; 0x31; 0x0C; 0x13; 0x16; 0x06; 0x02; 0xA0; 0xA3; 0x1E ]));
        (2, map Char.chr (int_range 1 12)) ]
  in
  frequency
    [ (3, string_size ~gen:byte (int_range 1 300));
      (1, map (fun () -> Lazy.force sample_der) unit) ]

let mutator_kernels_match =
  QCheck.Test.make ~name:"mutator kernels match the list-scan reference" ~count:500
    QCheck.(
      make
        ~print:(fun (s, (k, seed, index, attempt)) ->
          Printf.sprintf "kind %s seed %d index %d attempt %d input %S"
            (Faults.Mutator.kind_name k) seed index attempt s)
        Gen.(
          pair mutator_input
            (quad (oneofl Faults.Mutator.all_kinds) (int_bound 100_000) (int_bound 1000)
               (int_bound 3))))
    (fun (der, (kind, seed, index, attempt)) ->
      let plan = Faults.Mutator.plan ~kinds:[ kind ] ~seed ~rate:1.0 () in
      Faults.Mutator.mutate ~attempt plan ~index der
      = Mutator_reference.mutate ~attempt ~kinds:[ kind ] ~seed ~index der)

(* --- quarantine ------------------------------------------------------- *)

let test_quarantine_roundtrip () =
  let dir = tmp_dir "unicert-quarantine" in
  let q = Faults.Quarantine.open_shard ~dir ~run_seed:11 ~shard:0 in
  let err i =
    Faults.Error.Decode_error { offset = Some i; detail = "test detail " ^ string_of_int i }
  in
  Faults.Quarantine.record q ~index:3 ~error:(err 3) ~der:"\x30\x03\x02\x01\xFF";
  Faults.Quarantine.record q ~index:9 ~error:(err 9) ~der:"\x00\xFF";
  let sidecar = Faults.Quarantine.path q in
  Faults.Quarantine.close q;
  let path = Faults.Quarantine.merge_shards ~dir ~run_seed:11 ~shards:1 in
  check Alcotest.bool "sidecar folded away" false (Sys.file_exists sidecar);
  (* A torn trailing line (crash mid-write) must not poison the load. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"index\":12,\"class\":\"dec";
  close_out oc;
  let entries = Faults.Quarantine.load path in
  check Alcotest.int "torn line skipped" 2 (List.length entries);
  let e = List.hd entries in
  check Alcotest.int "index survives" 3 e.Faults.Quarantine.index;
  check Alcotest.string "class survives" "decode_error" e.Faults.Quarantine.error_class;
  check Alcotest.string "der bytes survive" "\x30\x03\x02\x01\xFF"
    e.Faults.Quarantine.der;
  Sys.remove path

(* --- checkpoints ------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let file = Filename.temp_file "unicert-ckpt" ".bin" in
  let c =
    { Faults.Checkpoint.scale = 500; seed = 3; next_index = 250;
      state = [ ("a", 1); ("b", 2) ] }
  in
  Faults.Checkpoint.save file c;
  (match Faults.Checkpoint.load file with
  | None -> Alcotest.fail "checkpoint did not load"
  | Some c' ->
      check Alcotest.int "scale" 500 c'.Faults.Checkpoint.scale;
      check Alcotest.int "next_index" 250 c'.Faults.Checkpoint.next_index;
      check
        Alcotest.(list (pair string int))
        "state" [ ("a", 1); ("b", 2) ] c'.Faults.Checkpoint.state);
  (* A present-but-wrong file is a loud validation error; only a
     missing file means "no checkpoint". *)
  let expect_invalid what contents =
    let oc = open_out file in
    output_string oc contents;
    close_out oc;
    match (Faults.Checkpoint.load file : int Faults.Checkpoint.t option) with
    | _ -> Alcotest.failf "%s did not raise Invalid" what
    | exception Faults.Checkpoint.Invalid msg ->
        check Alcotest.bool
          (what ^ " message names the file")
          true
          (String.length msg > String.length file)
  in
  expect_invalid "garbage" "not a checkpoint at all";
  expect_invalid "old format" "UNICERT-CKPT1\nleftover payload";
  expect_invalid "future version"
    "UNICERT-CKPT2\nv999\n\x00\x01\x02\x03\x04\x05\x06\x07";
  expect_invalid "truncated" "UNICERT-CKPT2\n";
  Sys.remove file;
  check Alcotest.bool "missing loads as None" true
    ((Faults.Checkpoint.load file : int Faults.Checkpoint.t option) = None)

(* A save that raises must not leave a half-written [FILE.tmp] (or an
   open channel) behind, and must leave the previous checkpoint as it
   was.  A closure makes Marshal refuse the state. *)
let test_checkpoint_save_failure () =
  let file = Filename.temp_file "unicert-ckpt" ".bin" in
  let ckpt state = { Faults.Checkpoint.scale = 1; seed = 2; next_index = 3; state } in
  Faults.Checkpoint.save file (ckpt [ 1 ]);
  (match Faults.Checkpoint.save file (ckpt [ (fun x -> x + 1) ]) with
  | () -> Alcotest.fail "saving a closure did not raise"
  | exception Invalid_argument _ -> ());
  check Alcotest.bool "no .tmp left" false (Sys.file_exists (file ^ ".tmp"));
  (match (Faults.Checkpoint.load file : int list Faults.Checkpoint.t option) with
  | Some c -> check Alcotest.(list int) "previous checkpoint intact" [ 1 ] c.state
  | None -> Alcotest.fail "previous checkpoint lost");
  Sys.remove file

(* Journaled checkpoints: saves append only their new records, a load
   reads exactly the prefix the header names, and a tail past it (a
   crash between the append and the header replace) is ignored and
   then cut off by the next save. *)
let test_checkpoint_journal () =
  let dir = Filename.temp_file "unicert-journal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "ckpt.fetch0" in
  let journal = Faults.Checkpoint.journal_file file in
  let ckpt n = { Faults.Checkpoint.scale = 8; seed = 1; next_index = n; state = n } in
  let load () =
    match
      (Faults.Checkpoint.load_journaled file
        : (int Faults.Checkpoint.t * Faults.Checkpoint.mark * string list) option)
    with
    | Some (c, _, records) -> (c.Faults.Checkpoint.state, records)
    | None -> Alcotest.fail "journaled checkpoint did not load"
  in
  let size f = (Unix.stat f).Unix.st_size in
  let m1 = Faults.Checkpoint.save_journaled file (ckpt 2) ~journal:Faults.Checkpoint.empty_mark [ "a"; "b" ] in
  let m2 = Faults.Checkpoint.save_journaled file (ckpt 3) ~journal:m1 [ "c" ] in
  check Alcotest.int "records counted" 3 m2.Faults.Checkpoint.records;
  check Alcotest.int "bytes counted" (size journal) m2.Faults.Checkpoint.bytes;
  check Alcotest.(pair int (list string)) "roundtrip" (3, [ "a"; "b"; "c" ]) (load ());
  let m3 = Faults.Checkpoint.save_journaled file (ckpt 4) ~journal:m2 [] in
  check Alcotest.bool "an empty save appends nothing" true
    (m3.Faults.Checkpoint.records = 3 && m3.Faults.Checkpoint.bytes = m2.Faults.Checkpoint.bytes);
  (* A save killed mid-write tears the slot it was writing: the load
     falls back to the other slot, the previous save. *)
  let torn = In_channel.with_open_bin file In_channel.input_all in
  let slot = (m3.Faults.Checkpoint.saves - 1) mod 2 * 4096 in
  let b = Bytes.of_string torn in
  Bytes.set b (slot + 40) (Char.chr (Char.code (Bytes.get b (slot + 40)) lxor 1));
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc b);
  check Alcotest.(pair int (list string)) "a torn slot falls back" (3, [ "a"; "b"; "c" ])
    (load ());
  Out_channel.with_open_bin file (fun oc -> output_string oc torn);
  (* Crash between append and header replace: the journal holds a
     record the header does not name. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 journal in
  Marshal.to_channel oc "lost" [];
  output_string oc "torn";
  close_out oc;
  check Alcotest.(pair int (list string)) "tail past the mark ignored" (4, [ "a"; "b"; "c" ])
    (load ());
  let m4 = Faults.Checkpoint.save_journaled file (ckpt 5) ~journal:m2 [ "d" ] in
  check Alcotest.(pair int (list string)) "next save cuts the tail" (5, [ "a"; "b"; "c"; "d" ])
    (load ());
  check Alcotest.int "journal ends at the mark" m4.Faults.Checkpoint.bytes (size journal);
  (* A journal shorter than its header is damage, not a fresh start. *)
  Unix.truncate journal (m4.Faults.Checkpoint.bytes - 1);
  (match load () with
  | _ -> Alcotest.fail "a short journal loaded"
  | exception Faults.Checkpoint.Invalid _ -> ());
  (* A journal goes stale with its header. *)
  let base = Filename.concat dir "ckpt" in
  check
    Alcotest.(list string)
    "stale journal listed"
    [ file; journal ]
    (Faults.Checkpoint.stale_cursors base ~active_shards:None ~active_fetch:(Some 0));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_stale_cursors () =
  let dir = Filename.temp_file "unicert-stale" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base = Filename.concat dir "ckpt.bin" in
  let touch f =
    let oc = open_out f in
    close_out oc
  in
  List.iter touch
    [ Faults.Checkpoint.shard_file base 0;
      Faults.Checkpoint.shard_file base 1;
      Faults.Checkpoint.shard_file base 5;
      base ^ ".fetch0";
      base ^ ".fetch3";
      base ^ ".shardX" (* non-numeric: never stale *) ];
  (* Each cursor family is judged only against its own active count.  A
     fetch-sourced run with 2 live logs must not flag .fetch0/.fetch1
     (the false positive this guards against), and a generate-sourced
     run (active_fetch:None) must leave every .fetch<k> alone — they are
     another run mode's resume state. *)
  let stale =
    Faults.Checkpoint.stale_cursors base ~active_shards:(Some 2)
      ~active_fetch:(Some 2)
  in
  check
    Alcotest.(list string)
    "k >= active detected per family"
    [ base ^ ".fetch3"; base ^ ".shard5" ]
    stale;
  let fetch_exempt =
    Faults.Checkpoint.stale_cursors base ~active_shards:(Some 2)
      ~active_fetch:None
  in
  check
    Alcotest.(list string)
    "None exempts the fetch family"
    [ base ^ ".shard5" ]
    fetch_exempt;
  let shard_exempt =
    Faults.Checkpoint.stale_cursors base ~active_shards:None
      ~active_fetch:(Some 1)
  in
  check
    Alcotest.(list string)
    "None exempts the shard family"
    [ base ^ ".fetch3" ]
    shard_exempt;
  let removed =
    Faults.Checkpoint.remove_stale base ~active_shards:(Some 2)
      ~active_fetch:(Some 2)
  in
  check Alcotest.(list string) "removed what was listed" stale removed;
  check Alcotest.bool "live shard cursors kept" true
    (Sys.file_exists (Faults.Checkpoint.shard_file base 1));
  check Alcotest.bool "live fetch cursors kept" true
    (Sys.file_exists (base ^ ".fetch0"));
  check Alcotest.bool "stale gone" false (Sys.file_exists (base ^ ".shard5"));
  check
    Alcotest.(list string)
    "idempotent" []
    (Faults.Checkpoint.remove_stale base ~active_shards:(Some 2)
       ~active_fetch:(Some 2));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* --- circuit breaker -------------------------------------------------- *)

let test_breaker () =
  let b = Faults.Breaker.create ~threshold:3 "test_lint" in
  Faults.Breaker.failure b;
  Faults.Breaker.failure b;
  check Alcotest.bool "below threshold stays closed" false (Faults.Breaker.tripped b);
  Faults.Breaker.success b;
  check Alcotest.int "success resets the streak" 0 (Faults.Breaker.consecutive b);
  Faults.Breaker.failure b;
  Faults.Breaker.failure b;
  Faults.Breaker.failure b;
  check Alcotest.bool "threshold consecutive crashes trip" true
    (Faults.Breaker.tripped b);
  check Alcotest.int "total crashes accumulate" 5 (Faults.Breaker.crashes b);
  Faults.Breaker.success b;
  check Alcotest.bool "open breaker stays open" true (Faults.Breaker.tripped b);
  Faults.Breaker.reset b;
  check Alcotest.bool "reset closes" false (Faults.Breaker.tripped b);
  check Alcotest.int "reset zeroes crashes" 0 (Faults.Breaker.crashes b)

(* [success] on a closed breaker clears a failure streak below the
   threshold (and stores nothing when there is no streak), so k more
   failures stay below it. *)
let test_breaker_success_resets () =
  let threshold = 4 in
  for k = 1 to threshold - 1 do
    let b = Faults.Breaker.create ~threshold "test_success_resets" in
    for _ = 1 to k do Faults.Breaker.failure b done;
    check Alcotest.int "streak counted" k (Faults.Breaker.consecutive b);
    Faults.Breaker.success b;
    check Alcotest.int "success clears the streak" 0 (Faults.Breaker.consecutive b);
    Faults.Breaker.success b;
    check Alcotest.int "a clean streak stays clean" 0 (Faults.Breaker.consecutive b);
    for _ = 1 to k do Faults.Breaker.failure b done;
    check Alcotest.bool
      (Printf.sprintf "%d more failures do not trip" k)
      false (Faults.Breaker.tripped b);
    check Alcotest.int "crashes still accumulate" (2 * k) (Faults.Breaker.crashes b)
  done

(* --- the injection harness -------------------------------------------- *)

let test_injector () =
  Faults.Injector.reset ();
  check Alcotest.bool "inert before arming" false (Faults.Injector.active ());
  Faults.Injector.arm ~every:2 "victim";
  check Alcotest.bool "active after arming" true (Faults.Injector.active ());
  Faults.Injector.tick "victim";
  Alcotest.check_raises "fires on the every-th tick"
    (Faults.Injector.Injected_crash "victim") (fun () ->
      Faults.Injector.tick "victim");
  Faults.Injector.tick "other";
  Faults.Injector.reset ();
  check Alcotest.bool "reset disarms" false (Faults.Injector.active ());
  Alcotest.check_raises "every < 1 rejected"
    (Invalid_argument "Faults.Injector.arm: every must be >= 1") (fun () ->
      Faults.Injector.arm ~every:0 "x")

let test_injector_spec () =
  let ok = Alcotest.(result (pair string int) string) in
  check ok "plain spec" (Ok ("u_cn_in_san", 3))
    (Faults.Injector.parse_spec "u_cn_in_san:3");
  check ok "target may contain colons" (Ok ("model:OpenSSL", 2))
    (Faults.Injector.parse_spec "model:OpenSSL:2");
  check Alcotest.bool "missing count rejected" true
    (Result.is_error (Faults.Injector.parse_spec "no_count"));
  check Alcotest.bool "bad count rejected" true
    (Result.is_error (Faults.Injector.parse_spec "t:x"))

(* --- watchdog --------------------------------------------------------- *)

let test_watchdog () =
  check Alcotest.int "fast path returns the value" 41
    (Faults.Watchdog.with_timeout ~seconds:5.0 (fun () -> 41));
  match
    Faults.Watchdog.with_timeout ~stage:"spin" ~seconds:0.05 (fun () ->
        (* Allocating loop so the signal can be delivered. *)
        let r = ref [] in
        while true do
          r := 1 :: !r;
          if List.length !r > 1_000 then r := []
        done;
        0)
  with
  | _ -> Alcotest.fail "watchdog did not fire"
  | exception Faults.Watchdog.Timed_out { stage; seconds } ->
      check Alcotest.string "stage recorded" "spin" stage;
      check (Alcotest.float 1e-9) "budget recorded" 0.05 seconds

(* --- pipeline error boundary ------------------------------------------ *)

let test_corrupt_vs_drop_equality () =
  let scale = 300 and seed = 5 in
  let plan = Faults.Mutator.plan ~seed:13 ~rate:0.1 () in
  let dir = tmp_dir "unicert-pipeline-q" in
  let policy =
    { Faults.Policy.default with Faults.Policy.quarantine_dir = Some dir }
  in
  let corrupt = Unicert.Pipeline.run ~scale ~seed ~policy ~mutator:plan () in
  let drop = Unicert.Pipeline.run ~scale ~seed ~mutator:plan ~drop:true () in
  check Alcotest.int "same survivors" drop.Unicert.Pipeline.total
    corrupt.Unicert.Pipeline.total;
  check Alcotest.int "same noncompliant count" drop.Unicert.Pipeline.nc_total
    corrupt.Unicert.Pipeline.nc_total;
  check Alcotest.int "same IDN count" drop.Unicert.Pipeline.idncerts
    corrupt.Unicert.Pipeline.idncerts;
  check Alcotest.int "same trusted count" drop.Unicert.Pipeline.trusted
    corrupt.Unicert.Pipeline.trusted;
  check Alcotest.int "same encoding-error count"
    drop.Unicert.Pipeline.encoding_error_certs
    corrupt.Unicert.Pipeline.encoding_error_certs;
  let cf = corrupt.Unicert.Pipeline.faults in
  check Alcotest.int "every missing cert is a counted fault"
    (scale - corrupt.Unicert.Pipeline.total)
    cf.Unicert.Pipeline.fault_errors;
  check Alcotest.int "every fault is quarantined" cf.Unicert.Pipeline.fault_errors
    cf.Unicert.Pipeline.quarantined;
  check Alcotest.bool "drop run is fault-free" true
    (drop.Unicert.Pipeline.faults.Unicert.Pipeline.fault_errors = 0);
  check Alcotest.bool "faults actually happened" true
    (cf.Unicert.Pipeline.fault_errors > 0)

let test_clean_run_is_silent () =
  let t = Unicert.Pipeline.run ~scale:60 ~seed:2 () in
  check Alcotest.int "no faults on a clean corpus" 0
    t.Unicert.Pipeline.faults.Unicert.Pipeline.fault_errors;
  let out = Format.asprintf "%a" Unicert.Report.robustness t in
  check Alcotest.string "robustness section is empty on a clean run" "" out

let test_degraded_lint () =
  Faults.Injector.reset ();
  Lint.Registry.reset_faults ();
  let lint = "e_utf8string_invalid_byte_sequence" in
  Faults.Injector.arm ~every:3 lint;
  let policy =
    { Faults.Policy.default with Faults.Policy.breaker_threshold = 1 }
  in
  let t = Unicert.Pipeline.run ~scale:120 ~seed:2 ~policy () in
  Faults.Injector.reset ();
  check Alcotest.bool "run completes with aborted unset" true
    (t.Unicert.Pipeline.faults.Unicert.Pipeline.aborted = None);
  (match t.Unicert.Pipeline.faults.Unicert.Pipeline.degraded with
  | [ (name, crashes) ] ->
      check Alcotest.string "the injected lint degraded" lint name;
      check Alcotest.bool "crash count recorded" true (crashes >= 1)
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one degraded lint, got %d"
           (List.length other)));
  check Alcotest.bool "lint crashes attributed to this run" true
    (t.Unicert.Pipeline.faults.Unicert.Pipeline.lint_crashes >= 1);
  let out = Format.asprintf "%a" Unicert.Report.robustness t in
  check Alcotest.bool "report lists the degraded lint" true
    (let re = "degraded lint:" in
     let rec contains i =
       i + String.length re <= String.length out
       && (String.sub out i (String.length re) = re || contains (i + 1))
     in
     contains 0);
  Lint.Registry.reset_faults ()

let test_abort_policies () =
  let plan = Faults.Mutator.plan ~seed:13 ~rate:0.1 () in
  let t =
    Unicert.Pipeline.run ~scale:300 ~seed:5
      ~policy:{ Faults.Policy.default with Faults.Policy.max_errors = Some 5 }
      ~mutator:plan ()
  in
  check Alcotest.bool "max-errors aborts" true
    (t.Unicert.Pipeline.faults.Unicert.Pipeline.aborted <> None);
  check Alcotest.int "stopped at the budget" 5
    t.Unicert.Pipeline.faults.Unicert.Pipeline.fault_errors;
  let t =
    Unicert.Pipeline.run ~scale:300 ~seed:5
      ~policy:{ Faults.Policy.default with Faults.Policy.fail_fast = true }
      ~mutator:plan ()
  in
  check Alcotest.bool "fail-fast aborts" true
    (t.Unicert.Pipeline.faults.Unicert.Pipeline.aborted <> None);
  check Alcotest.int "fail-fast stops on the first error" 1
    t.Unicert.Pipeline.faults.Unicert.Pipeline.fault_errors

let test_resume () =
  let scale = 300 and seed = 5 in
  let plan = Faults.Mutator.plan ~seed:13 ~rate:0.1 () in
  let file = Filename.temp_file "unicert-resume" ".bin" in
  let ckpt m =
    { Faults.Policy.default with
      Faults.Policy.checkpoint_file = Some file;
      checkpoint_every = 10;
      max_errors = m }
  in
  (* A bounded run aborts mid-pass, leaving a checkpoint behind... *)
  let partial =
    Unicert.Pipeline.run ~scale ~seed ~policy:(ckpt (Some 15)) ~mutator:plan ()
  in
  check Alcotest.bool "partial run aborted" true
    (partial.Unicert.Pipeline.faults.Unicert.Pipeline.aborted <> None);
  check Alcotest.bool "checkpoints were saved" true
    (partial.Unicert.Pipeline.faults.Unicert.Pipeline.checkpoints_saved > 0);
  (* ...and the resumed run finishes with the same aggregates as one
     uninterrupted pass. *)
  let resumed =
    Unicert.Pipeline.run ~scale ~seed ~policy:(ckpt None) ~mutator:plan
      ~resume:true ()
  in
  let full = Unicert.Pipeline.run ~scale ~seed ~mutator:plan () in
  check Alcotest.bool "resume skipped the done prefix" true
    (resumed.Unicert.Pipeline.faults.Unicert.Pipeline.resumed_at > 0);
  check Alcotest.int "same total" full.Unicert.Pipeline.total
    resumed.Unicert.Pipeline.total;
  check Alcotest.int "same noncompliant count" full.Unicert.Pipeline.nc_total
    resumed.Unicert.Pipeline.nc_total;
  check Alcotest.int "same fault count"
    full.Unicert.Pipeline.faults.Unicert.Pipeline.fault_errors
    resumed.Unicert.Pipeline.faults.Unicert.Pipeline.fault_errors;
  check Alcotest.bool "resumed run completed" true
    (resumed.Unicert.Pipeline.faults.Unicert.Pipeline.aborted = None);
  (* A jobs=1 run keeps its cursor in shard 0's file. *)
  Sys.remove (Faults.Checkpoint.shard_file file 0);
  Sys.remove file

(* Shard cursors marshal [(lo, Pipeline.t)], so a v003 cursor predates
   the undated per-lint histogram.  [unicert_report --resume] must
   refuse it with exit 2, naming both versions, not resume from it. *)
let test_v003_shard_cursor_rejected () =
  let dir = Filename.temp_file "unicert-v003" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base = Filename.concat dir "ckpt" in
  let err = Filename.concat dir "stderr" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let oc = open_out_bin (Faults.Checkpoint.shard_file base 0) in
      output_string oc "UNICERT-CKPT2\nv003\n";
      Marshal.to_channel oc
        { Faults.Checkpoint.scale = 16; seed = 1; next_index = 8; state = (0, ()) }
        [];
      close_out oc;
      let code =
        Sys.command
          (Printf.sprintf
             "../bin/unicert_report.exe summary --scale 16 --seed 1 \
              --no-progress --checkpoint %s --resume > /dev/null 2> %s"
             (Filename.quote base) (Filename.quote err))
      in
      check Alcotest.int "exit code" 2 code;
      let msg = In_channel.with_open_bin err In_channel.input_all in
      let mentions v =
        let n = String.length v in
        let rec go i =
          i + n <= String.length msg && (String.sub msg i n = v || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool ("names v003: " ^ msg) true (mentions "v003");
      check Alcotest.bool ("names v004: " ^ msg) true (mentions "v004"))

(* --- harness crash accounting ----------------------------------------- *)

let test_harness_crash_accounting () =
  Faults.Injector.reset ();
  Tlsparsers.Harness.reset_faults ();
  Faults.Injector.arm ~every:1 "model:OpenSSL";
  let matrix = Tlsparsers.Harness.decoding_matrix () in
  Faults.Injector.reset ();
  let _, cells = List.hd matrix in
  let openssl = List.find (fun c -> c.Tlsparsers.Harness.library = "OpenSSL") cells in
  check Alcotest.bool "crashes recorded for the injected model" true
    (openssl.Tlsparsers.Harness.crashes <> []);
  check Alcotest.bool "no method inferred from crashing probes" true
    (openssl.Tlsparsers.Harness.inferred = None);
  check Alcotest.bool "verdict surfaces the exception constructor" true
    (List.exists
       (function Tlsparsers.Infer.Crashing _ -> true | _ -> false)
       openssl.Tlsparsers.Harness.verdicts);
  let other = List.find (fun c -> c.Tlsparsers.Harness.library = "GnuTLS") cells in
  check
    Alcotest.(list (pair string int))
    "uninjected model records no crashes" [] other.Tlsparsers.Harness.crashes;
  check Alcotest.bool "injected model reported degraded" true
    (List.mem_assoc "OpenSSL" (Tlsparsers.Harness.degraded_models ()));
  Tlsparsers.Harness.reset_faults ()

(* --- error taxonomy --------------------------------------------------- *)

let test_error_taxonomy () =
  let open Faults.Error in
  check Alcotest.string "decode class" "decode_error"
    (class_name (Decode_error { offset = None; detail = "d" }));
  check Alcotest.string "timeout class" "timeout"
    (class_name (Timeout { stage = "s"; seconds = 1.0 }));
  check Alcotest.string "exn constructor" "Not_found" (exn_name Not_found);
  check Alcotest.string "failure maps to decode" "decode_error"
    (class_name (of_exn ~stage:"x" (Failure "boom")));
  check Alcotest.string "stack overflow maps to resource" "resource"
    (class_name (of_exn ~stage:"x" Stack_overflow));
  check Alcotest.string "sys_error maps to resource" "resource"
    (class_name (of_exn ~stage:"x" (Sys_error "disk on fire")))

let test_exit_precedence () =
  let open Faults.Exitcode in
  (* Table-driven: every ordered pair of known codes, plus the unknown
     codes that must never be masked.  The contract the binaries rely
     on: a degraded run that also hits a store identity error exits 2;
     a degraded run whose metrics flush failed still exits 4. *)
  let cases =
    [
      (0, 0, 0); (0, 1, 1); (1, 0, 1); (0, 4, 4); (4, 0, 4); (1, 4, 4);
      (4, 1, 4); (3, 4, 3); (4, 3, 3); (3, 1, 3); (0, 3, 3); (2, 3, 2);
      (3, 2, 2); (2, 4, 2); (4, 2, 2); (2, 1, 2); (2, 0, 2); (1, 1, 1);
      (* unknown codes rank above every known one *)
      (5, 2, 5); (2, 5, 5); (127, 0, 127); (0, 127, 127);
    ]
  in
  List.iter
    (fun (a, b, expected) ->
      check Alcotest.int (Printf.sprintf "worst %d %d" a b) expected (worst a b))
    cases;
  (* worst is associative with identity 0, so folding a code list in
     any order yields the same verdict. *)
  let fold l = List.fold_left worst 0 l in
  check Alcotest.int "fold [4;1]" 4 (fold [ 4; 1 ]);
  check Alcotest.int "fold [1;4;3]" 3 (fold [ 1; 4; 3 ]);
  check Alcotest.int "fold [4;3;2]" 2 (fold [ 4; 3; 2 ]);
  check Alcotest.int "fold order-independent" (fold [ 2; 3; 4 ])
    (fold [ 4; 3; 2 ])

(* An unknown experiment id is a usage error: exit 2, nothing on
   stdout, and a stderr message that lists every valid id. *)
let test_unknown_experiment_id () =
  let out = Filename.temp_file "unicert-report" ".out" in
  let err = Filename.temp_file "unicert-report" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "../bin/unicert_report.exe bogus > %s 2> %s"
             (Filename.quote out) (Filename.quote err))
      in
      check Alcotest.int "exit code" 2 code;
      check Alcotest.string "stdout" ""
        (In_channel.with_open_bin out In_channel.input_all);
      let msg = In_channel.with_open_bin err In_channel.input_all in
      let words = String.split_on_char ' ' (String.trim msg) in
      List.iter
        (fun id -> check Alcotest.bool ("names " ^ id) true (List.mem id words))
        [ "fig2"; "tab1"; "tab2"; "fig3"; "fig4"; "tab11"; "sec51";
          "ablations"; "summary"; "tab3"; "tab4"; "tab5"; "tab6"; "sec62";
          "tab14"; "fig7"; "apis"; "rules"; "all"; "paper" ])

let suite =
  [
    Alcotest.test_case "exit-code precedence" `Quick test_exit_precedence;
    Alcotest.test_case "oid malformations" `Quick test_oid_malformations;
    Alcotest.test_case "bit-string malformations" `Quick
      test_bit_string_malformations;
    Alcotest.test_case "length malformations" `Quick test_length_malformations;
    Alcotest.test_case "mutator determinism" `Quick test_mutator_determinism;
    Alcotest.test_case "mutator rate" `Quick test_mutator_rate;
    Alcotest.test_case "mutator kinds" `Quick test_mutator_kinds;
    qtest mutator_kernels_match;
    qtest parse_totality;
    Alcotest.test_case "quarantine roundtrip" `Quick test_quarantine_roundtrip;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "stale cursors" `Quick test_stale_cursors;
    Alcotest.test_case "checkpoint save failure leaves no tmp" `Quick
      test_checkpoint_save_failure;
    Alcotest.test_case "checkpoint journal" `Quick test_checkpoint_journal;
    Alcotest.test_case "circuit breaker" `Quick test_breaker;
    Alcotest.test_case "injector" `Quick test_injector;
    Alcotest.test_case "injector specs" `Quick test_injector_spec;
    Alcotest.test_case "watchdog" `Quick test_watchdog;
    Alcotest.test_case "corrupt-vs-drop equality" `Quick
      test_corrupt_vs_drop_equality;
    Alcotest.test_case "clean run is silent" `Quick test_clean_run_is_silent;
    Alcotest.test_case "degraded lint" `Quick test_degraded_lint;
    Alcotest.test_case "abort policies" `Quick test_abort_policies;
    Alcotest.test_case "resume" `Quick test_resume;
    Alcotest.test_case "harness crash accounting" `Quick
      test_harness_crash_accounting;
    Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
    Alcotest.test_case "v003 shard cursor is rejected" `Quick
      test_v003_shard_cursor_rejected;
    Alcotest.test_case "breaker success resets the streak" `Quick
      test_breaker_success_resets;
    Alcotest.test_case "unknown experiment id exits 2" `Quick
      test_unknown_experiment_id;
  ]
