(* Tests for the CT log substrate: Merkle trees (against RFC vectors and
   by property), log/SCT behaviour, and the calibrated dataset. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- merkle ----------------------------------------------------------- *)

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_merkle_empty_and_leaf () =
  let t = Ctlog.Merkle.create () in
  (* MTH({}) = SHA-256 of the empty string (RFC 6962 §2.1). *)
  check Alcotest.string "empty root"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Ctlog.Merkle.root t));
  ignore (Ctlog.Merkle.append t "");
  (* RFC 6962 test vector: leaf hash of the empty leaf. *)
  check Alcotest.string "single empty leaf"
    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"
    (hex (Ctlog.Merkle.root t))

let build n =
  let t = Ctlog.Merkle.create () in
  let leaves = List.init n (fun i -> Printf.sprintf "leaf-%d" i) in
  List.iter (fun l -> ignore (Ctlog.Merkle.append t l)) leaves;
  (t, leaves)

let test_merkle_inclusion () =
  List.iter
    (fun n ->
      let t, leaves = build n in
      let root = Ctlog.Merkle.root t in
      List.iteri
        (fun i leaf ->
          let proof = Ctlog.Merkle.inclusion_proof t i in
          if not (Ctlog.Merkle.verify_inclusion ~leaf ~index:i ~size:n ~proof ~root)
          then Alcotest.failf "inclusion failed at %d/%d" i n;
          if Ctlog.Merkle.verify_inclusion ~leaf:"forged" ~index:i ~size:n ~proof ~root
          then Alcotest.failf "forged leaf accepted at %d/%d" i n)
        leaves)
    [ 1; 2; 3; 7; 8; 9; 16; 33 ]

let test_merkle_consistency () =
  List.iter
    (fun n ->
      let t, _ = build n in
      let new_root = Ctlog.Merkle.root t in
      for m = 0 to n do
        let old_root = Ctlog.Merkle.root_of_range t m in
        let proof = Ctlog.Merkle.consistency_proof t m in
        if
          not
            (Ctlog.Merkle.verify_consistency ~old_size:m ~old_root ~new_size:n
               ~new_root ~proof)
        then Alcotest.failf "consistency failed %d -> %d" m n
      done)
    [ 1; 2; 5; 8; 13; 32 ]

let test_merkle_consistency_rejects () =
  let t, _ = build 16 in
  let proof = Ctlog.Merkle.consistency_proof t 7 in
  let bogus_old = Ucrypto.Sha256.digest "bogus" in
  check Alcotest.bool "wrong old root rejected" false
    (Ctlog.Merkle.verify_consistency ~old_size:7 ~old_root:bogus_old ~new_size:16
       ~new_root:(Ctlog.Merkle.root t) ~proof)

let prop_merkle_random =
  QCheck.Test.make ~name:"inclusion proofs verify for random sizes" ~count:60
    QCheck.(pair (int_range 1 80) (int_range 0 1000))
    (fun (n, pick) ->
      let t, leaves = build n in
      let i = pick mod n in
      let proof = Ctlog.Merkle.inclusion_proof t i in
      Ctlog.Merkle.verify_inclusion ~leaf:(List.nth leaves i) ~index:i ~size:n ~proof
        ~root:(Ctlog.Merkle.root t))

(* The RFC 6962 §2.1 definitions, written out plainly: MTH, PATH and
   SUBPROOF over leaf [i] = ["leaf-i"].  The leaves never change, so
   memoizing MTH by (lo, hi) is valid across every tree a test builds. *)
let ref_hashes = Hashtbl.create 4096

let ref_split n =
  let k = ref 1 in
  while !k * 2 < n do
    k := !k * 2
  done;
  !k

let rec ref_mth lo hi =
  match Hashtbl.find_opt ref_hashes (lo, hi) with
  | Some h -> h
  | None ->
      let h =
        match hi - lo with
        | 0 -> Ucrypto.Sha256.digest ""
        | 1 -> Ctlog.Merkle.leaf_hash (Printf.sprintf "leaf-%d" lo)
        | n ->
            let k = ref_split n in
            Ctlog.Merkle.node_hash (ref_mth lo (lo + k)) (ref_mth (lo + k) hi)
      in
      Hashtbl.replace ref_hashes (lo, hi) h;
      h

let rec ref_path m lo hi =
  if hi - lo <= 1 then []
  else
    let k = ref_split (hi - lo) in
    if m < k then ref_path m lo (lo + k) @ [ ref_mth (lo + k) hi ]
    else ref_path (m - k) (lo + k) hi @ [ ref_mth lo (lo + k) ]

let rec ref_subproof m lo hi b =
  let n = hi - lo in
  if m = n then if b then [] else [ ref_mth lo hi ]
  else
    let k = ref_split n in
    if m <= k then ref_subproof m lo (lo + k) b @ [ ref_mth (lo + k) hi ]
    else ref_subproof (m - k) (lo + k) hi false @ [ ref_mth lo (lo + k) ]

let ref_consistency m n = if m = 0 || m = n then [] else ref_subproof m 0 n true

let grow t n =
  for i = Ctlog.Merkle.size t to n - 1 do
    ignore (Ctlog.Merkle.append t (Printf.sprintf "leaf-%d" i))
  done

(* Every query a tree of size [n] answers, against the reference. *)
let agrees_with_reference t =
  let n = Ctlog.Merkle.size t in
  String.equal (Ctlog.Merkle.root t) (ref_mth 0 n)
  && List.for_all
       (fun m ->
         String.equal (Ctlog.Merkle.root_of_range t m) (ref_mth 0 m)
         && Ctlog.Merkle.consistency_proof_range t m n = ref_consistency m n
         && (m = n || Ctlog.Merkle.inclusion_proof t m = ref_path m 0 n))
       (List.init (n + 1) Fun.id)

let prop_merkle_cache =
  QCheck.Test.make ~name:"cached queries equal the uncached RFC definitions"
    ~count:40
    QCheck.(pair (int_range 0 300) (list_of_size (Gen.int_range 0 4) (int_range 0 300)))
    (fun (n, cuts) ->
      (* Grow in steps, querying at each one, so later queries reuse
         (and extend) what earlier ones cached. *)
      let t = Ctlog.Merkle.create () in
      List.for_all
        (fun s ->
          grow t s;
          agrees_with_reference t)
        (List.sort_uniq compare (n :: List.filter (fun c -> c < n) cuts)))

(* Fetch cursors journal leaf hashes, and a resumed session rebuilds
   its running tree from them: the rebuilt tree must answer like the
   reference and keep doing so as it grows. *)
let test_merkle_append_hash () =
  let rebuilt = Ctlog.Merkle.create () in
  for i = 0 to 36 do
    check Alcotest.int "index" i
      (Ctlog.Merkle.append_hash rebuilt
         (Ctlog.Merkle.leaf_hash (Printf.sprintf "leaf-%d" i)))
  done;
  List.iter
    (fun n ->
      grow rebuilt n;
      check Alcotest.bool (Printf.sprintf "rebuilt tree at %d" n) true
        (agrees_with_reference rebuilt))
    [ 37; 64; 100 ]

(* Cursor files of checkpoint format v002 held the whole session in one
   marshalled value; v003 journals it.  A v002 cursor must be refused
   loudly, naming both versions, not resumed from scratch. *)
let test_v002_cursor_rejected () =
  let dir = Filename.temp_file "unicert-cursor" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base = Filename.concat dir "ckpt" in
  let file = Ctlog.Fetch.cursor_file base 0 in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc "UNICERT-CKPT2\nv002\n";
      (* v002 cursors carried every delivered DER: more than a v003
         header slot. *)
      Marshal.to_channel oc
        { Faults.Checkpoint.scale = 16; seed = 1; next_index = 0;
          state = String.make 10_000 'x' }
        [];
      close_out oc;
      let cfg = { Ctlog.Fetch.default_cfg with Ctlog.Fetch.logs = 1 } in
      match
        Ctlog.Fetch.corpus ~scale:16 ~seed:1 ~checkpoint:base ~resume:true cfg
      with
      | _ -> Alcotest.fail "a v002 cursor was resumed"
      | exception Faults.Checkpoint.Invalid msg ->
          let mentions v =
            let n = String.length v in
            let rec go i =
              i + n <= String.length msg && (String.sub msg i n = v || go (i + 1))
            in
            go 0
          in
          check Alcotest.bool ("names v002: " ^ msg) true (mentions "v002");
          check Alcotest.bool ("names v003: " ^ msg) true (mentions "v003"))

(* --- wire ---------------------------------------------------------------- *)

let test_wire_hex () =
  let all = String.init 256 Char.chr in
  let reference =
    String.concat "" (List.init 256 (fun b -> Printf.sprintf "%02x" b))
  in
  check Alcotest.string "every byte value" reference (Ctlog.Wire.to_hex all);
  check Alcotest.(option string) "round trip" (Some all)
    (Ctlog.Wire.of_hex (Ctlog.Wire.to_hex all));
  check Alcotest.string "empty" "" (Ctlog.Wire.to_hex "");
  check Alcotest.(option string) "upper case decodes" (Some "\xab\xcd")
    (Ctlog.Wire.of_hex "ABcd");
  List.iter
    (fun bad ->
      check Alcotest.(option string) (Printf.sprintf "%S rejected" bad) None
        (Ctlog.Wire.of_hex bad))
    [ "0g"; "g0"; "abc"; "a " ]

(* The closure decoder [Wire.of_hex] replaced, kept as the oracle for
   the table decoder. *)
let of_hex_reference s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else begin
    let nib c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> -1
    in
    let b = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      let hi = nib s.[2 * i] and lo = nib s.[(2 * i) + 1] in
      if hi < 0 || lo < 0 then ok := false
      else Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
    done;
    if !ok then Some (Bytes.to_string b) else None
  end

(* Hex text of [raw], with the cases flipped where [upper] says so and
   [junk] (position, byte) pairs written over it; odd lengths come from
   [trim]. *)
let prop_wire_hex =
  QCheck.Test.make ~name:"wire hex codec = closure decoder" ~count:500
    QCheck.(
      quad (string_of_size (Gen.int_range 0 64)) (list bool)
        (list_of_size (Gen.int_range 0 2) (pair small_nat (int_range 0 255)))
        bool)
    (fun (raw, upper, junk, trim) ->
      let text = Bytes.of_string (Ctlog.Wire.to_hex raw) in
      List.iteri
        (fun i up ->
          if up && i < Bytes.length text then
            Bytes.set text i (Char.uppercase_ascii (Bytes.get text i)))
        upper;
      let n = Bytes.length text in
      if n > 0 then List.iter (fun (i, c) -> Bytes.set text (i mod n) (Char.chr c)) junk;
      let text = Bytes.to_string text in
      let text = if trim && n > 0 then String.sub text 0 (n - 1) else text in
      Ctlog.Wire.of_hex (Ctlog.Wire.to_hex raw) = Some raw
      && Ctlog.Wire.of_hex text = of_hex_reference text
      && (junk <> [] || trim || Ctlog.Wire.of_hex text = Some raw))

(* The copying [Wire.open_] it replaced, the oracle for the slice one. *)
let open_reference body =
  match String.rindex_opt body '\n' with
  | None -> None
  | Some last ->
      let body = String.sub body 0 last in
      let start =
        match String.rindex_opt body '\n' with Some i -> i + 1 | None -> 0
      in
      let trailer = String.sub body start (String.length body - start) in
      let payload = String.sub body 0 start in
      if String.length trailer >= 4 && String.sub trailer 0 4 = "end " then begin
        let sum = String.sub trailer 4 (String.length trailer - 4) in
        if String.equal sum (Ucrypto.Sha256.hex payload) then
          Some (String.split_on_char '\n' payload |> List.filter (fun l -> l <> ""))
        else None
      end
      else None

let prop_wire_open =
  QCheck.Test.make ~name:"wire seal/open_ = copying reference" ~count:500
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 6)
           (string_gen_of_size (Gen.int_range 0 12) (Gen.oneofl [ 'a'; '0'; ' '; '\n' ])))
        (int_range 0 3) (pair small_nat (int_range 0 255)))
    (fun (lines, damage, (at, byte)) ->
      let sealed = Ctlog.Wire.seal lines in
      let n = String.length sealed in
      let body =
        match damage with
        | 0 -> sealed
        | 1 -> String.sub sealed 0 (at mod n)
        | 2 ->
            String.mapi (fun i c -> if i = at mod n then Char.chr byte else c) sealed
        | _ -> sealed ^ String.make (at mod 5) (Char.chr byte)
      in
      let got = Ctlog.Wire.open_ body in
      got = open_reference body
      && (damage <> 0
         || got = Some (List.concat_map (String.split_on_char '\n') lines
                        |> List.filter (fun l -> l <> ""))))

(* --- log --------------------------------------------------------------- *)

let test_log_scts () =
  let log = Ctlog.Log.create ~name:"test-log" in
  let sct1 = Ctlog.Log.add_chain log "der-one" in
  let sct2 = Ctlog.Log.add_chain log ~precert:true "der-two" in
  check Alcotest.int "size" 2 (Ctlog.Log.size log);
  check Alcotest.bool "sct1 verifies" true (Ctlog.Log.verify_sct log ~der:"der-one" sct1);
  check Alcotest.bool "sct2 verifies" true (Ctlog.Log.verify_sct log ~der:"der-two" sct2);
  check Alcotest.bool "wrong der" false (Ctlog.Log.verify_sct log ~der:"der-X" sct1);
  let other = Ctlog.Log.create ~name:"other-log" in
  check Alcotest.bool "wrong log" false (Ctlog.Log.verify_sct other ~der:"der-one" sct1);
  check Alcotest.bool "entry lookup" true
    (match Ctlog.Log.get log 1 with
    | Some e -> e.Ctlog.Log.precert && e.Ctlog.Log.der = "der-two"
    | None -> false);
  check Alcotest.int "append without an SCT" 2 (Ctlog.Log.append log "der-three");
  check Alcotest.bool "appended entry lookup" true
    (Ctlog.Log.get log 2 = Some { Ctlog.Log.index = 2; der = "der-three"; precert = false }
    && Ctlog.Log.get log 3 = None)

(* --- dataset ------------------------------------------------------------ *)

let test_dataset_determinism () =
  let serials scale seed =
    let out = ref [] in
    Ctlog.Dataset.iter ~scale ~seed (fun e ->
        out := e.Ctlog.Dataset.cert.X509.Certificate.tbs.X509.Certificate.serial :: !out);
    List.rev !out
  in
  check (Alcotest.list Alcotest.string) "same seed same corpus" (serials 50 7)
    (serials 50 7);
  check Alcotest.bool "different seed differs" true (serials 50 7 <> serials 50 8)

let test_dataset_structure () =
  let n = ref 0 in
  Ctlog.Dataset.iter ~scale:300 ~seed:3 (fun e ->
      incr n;
      let cert = e.Ctlog.Dataset.cert in
      (* Every corpus certificate parses back from its DER. *)
      (match X509.Certificate.parse cert.X509.Certificate.der with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "corpus cert does not reparse: %s" (Faults.Error.to_string m));
      (* And its signature binds to the issuer key. *)
      if
        not
          (X509.Certificate.verify
             ~issuer_spki:
               (X509.Certificate.keypair_spki e.Ctlog.Dataset.issuer.Ctlog.Dataset.keypair)
             cert)
      then Alcotest.fail "corpus cert signature invalid";
      (* Issuance year within the issuer's range. *)
      let y0, y1, _ = e.Ctlog.Dataset.issuer.Ctlog.Dataset.years in
      let y = e.Ctlog.Dataset.issued.Asn1.Time.year in
      if y < y0 || y > y1 then Alcotest.failf "year %d outside [%d,%d]" y y0 y1);
  check Alcotest.int "requested scale" 300 !n

let test_dataset_calibration () =
  (* Shape-level targets from the paper at a modest scale (seed-stable). *)
  let total = ref 0 and nc = ref 0 and nc_trusted = ref 0 and idn = ref 0 in
  Ctlog.Dataset.iter ~scale:12000 ~seed:1 (fun e ->
      incr total;
      if e.Ctlog.Dataset.is_idn then incr idn;
      let findings =
        Lint.Registry.noncompliant ~issued:e.Ctlog.Dataset.issued e.Ctlog.Dataset.cert
      in
      if findings <> [] then begin
        incr nc;
        if e.Ctlog.Dataset.issuer.Ctlog.Dataset.trust_at_issuance = Ctlog.Dataset.Public
        then incr nc_trusted
      end);
  let rate = float_of_int !nc /. float_of_int !total in
  if rate < 0.004 || rate > 0.012 then
    Alcotest.failf "noncompliance rate %.4f outside [0.004, 0.012] (paper: 0.0072)" rate;
  let trusted_share = float_of_int !nc_trusted /. float_of_int (max 1 !nc) in
  if trusted_share < 0.50 || trusted_share > 0.80 then
    Alcotest.failf "trusted NC share %.2f outside [0.50, 0.80] (paper: 0.653)"
      trusted_share;
  let idn_share = float_of_int !idn /. float_of_int !total in
  if idn_share < 0.75 then Alcotest.failf "IDN share %.2f unexpectedly low" idn_share

let test_dataset_flawed_certs_detectable () =
  (* Every injected (non-era) flaw is found by the undated linter. *)
  let missed = ref 0 and flawed = ref 0 in
  Ctlog.Dataset.iter ~scale:4000 ~seed:5 (fun e ->
      if e.Ctlog.Dataset.flaws <> [] then begin
        incr flawed;
        let findings =
          Lint.Registry.noncompliant ~respect_effective_dates:false
            ~issued:e.Ctlog.Dataset.issued e.Ctlog.Dataset.cert
        in
        if findings = [] then incr missed
      end);
  check Alcotest.int "no flawed cert escapes the undated linter" 0 !missed;
  check Alcotest.bool "some flawed certs exist" true (!flawed > 10)

let test_canonical_encoding_agreement () =
  (* For every corpus certificate: parse the DER back and re-encode the
     parsed TBS — the bytes must be identical (encoder and decoder agree
     on a canonical form across every value type the corpus uses,
     including deliberately noncompliant string payloads). *)
  Ctlog.Dataset.iter ~scale:800 ~seed:13 (fun e ->
      let cert = e.Ctlog.Dataset.cert in
      match X509.Certificate.parse cert.X509.Certificate.der with
      | Error m -> Alcotest.fail (Faults.Error.to_string m)
      | Ok parsed ->
          if
            not
              (String.equal
                 (X509.Certificate.encode_tbs parsed.X509.Certificate.tbs)
                 parsed.X509.Certificate.tbs_der)
          then
            Alcotest.failf "re-encoded TBS differs for a %s certificate"
              e.Ctlog.Dataset.issuer.Ctlog.Dataset.org)

let test_populate_log () =
  let log = Ctlog.Log.create ~name:"populate-test" in
  let precerts, finals = Ctlog.Dataset.populate_log ~scale:400 ~seed:11 log in
  check Alcotest.int "entry accounting" (Ctlog.Log.size log) (precerts + finals);
  let share = float_of_int precerts /. float_of_int (precerts + finals) in
  if share < 0.48 || share > 0.62 then
    Alcotest.failf "precert share %.3f outside [0.48, 0.62] (paper: 0.547)" share;
  (* The dataset-filtering step: precert entries carry the poison. *)
  let poisoned =
    List.filter
      (fun (e : Ctlog.Log.entry) ->
        match X509.Certificate.parse e.Ctlog.Log.der with
        | Ok c -> X509.Certificate.is_precertificate c
        | Error _ -> false)
      (Ctlog.Log.entries log)
  in
  check Alcotest.int "poison marks exactly the precerts" precerts (List.length poisoned)

let test_issuer_table () =
  let issuers = Ctlog.Dataset.issuers in
  check Alcotest.bool "over 20 issuers" true (List.length issuers >= 20);
  let find org = List.find (fun i -> i.Ctlog.Dataset.org = org) issuers in
  let le = find "Let's Encrypt" in
  check Alcotest.bool "LE is dominant" true
    (List.for_all (fun i -> i.Ctlog.Dataset.volume <= le.Ctlog.Dataset.volume) issuers);
  check Alcotest.bool "LE idn-only" true (le.Ctlog.Dataset.idn_share = 1.0);
  let symantec = find "Symantec Corporation" in
  check Alcotest.bool "symantec distrusted now" true
    (symantec.Ctlog.Dataset.trust_now = Ctlog.Dataset.Untrusted);
  check Alcotest.bool "symantec trusted at issuance" true
    (symantec.Ctlog.Dataset.trust_at_issuance = Ctlog.Dataset.Public)

let suite =
  [
    Alcotest.test_case "merkle empty/leaf vectors" `Quick test_merkle_empty_and_leaf;
    Alcotest.test_case "merkle inclusion proofs" `Quick test_merkle_inclusion;
    Alcotest.test_case "merkle consistency proofs" `Quick test_merkle_consistency;
    Alcotest.test_case "merkle rejects bogus roots" `Quick test_merkle_consistency_rejects;
    qtest prop_merkle_cache;
    Alcotest.test_case "merkle rebuilds from leaf hashes" `Quick
      test_merkle_append_hash;
    Alcotest.test_case "v002 fetch cursor is rejected" `Quick
      test_v002_cursor_rejected;
    Alcotest.test_case "wire hex table" `Quick test_wire_hex;
    Alcotest.test_case "log SCTs" `Quick test_log_scts;
    Alcotest.test_case "dataset determinism" `Quick test_dataset_determinism;
    Alcotest.test_case "dataset structural invariants" `Quick test_dataset_structure;
    Alcotest.test_case "dataset calibration bounds" `Slow test_dataset_calibration;
    Alcotest.test_case "flawed certs all detectable" `Slow test_dataset_flawed_certs_detectable;
    Alcotest.test_case "canonical encode/decode agreement" `Slow
      test_canonical_encoding_agreement;
    Alcotest.test_case "populate log with precerts" `Slow test_populate_log;
    Alcotest.test_case "issuer table" `Quick test_issuer_table;
    qtest prop_merkle_random;
    qtest prop_wire_hex;
    qtest prop_wire_open;
  ]
