(* Fuzzer unit tests: generator purity, evaluation determinism,
   breaker-scope isolation (the process-global reset_faults regression),
   probe telemetry, the strict-first parse, mutator exhaustion guard,
   minimizer contract, findings JSONL round-trip, an in-process campaign
   determinism check, golden campaign digests, and the regression
   corpus of minimized reproducers. *)

let check = Alcotest.check

let test_gen_pure () =
  let corpus =
    [| Fuzz.Gen.build Fuzz.Gen.Cn Asn1.Str_type.Printable_string "test.com" |]
  in
  for index = 0 to 31 do
    let a = Fuzz.Gen.candidate ~seed:11 ~round:2 ~index ~corpus in
    let b = Fuzz.Gen.candidate ~seed:11 ~round:2 ~index ~corpus in
    check Alcotest.string "op" a.Fuzz.Gen.op b.Fuzz.Gen.op;
    check Alcotest.string "payload" a.Fuzz.Gen.payload b.Fuzz.Gen.payload;
    check Alcotest.string "der" a.Fuzz.Gen.der b.Fuzz.Gen.der
  done;
  (* distinct indices draw distinct candidates somewhere in the batch *)
  let distinct =
    List.init 32 (fun index ->
        (Fuzz.Gen.candidate ~seed:11 ~round:2 ~index ~corpus).Fuzz.Gen.der)
    |> List.sort_uniq compare
  in
  check Alcotest.bool "batch is not constant" true (List.length distinct > 4)

let test_eval_pure () =
  let der =
    Fuzz.Gen.build Fuzz.Gen.Cn Asn1.Str_type.Printable_string "pay\x00pal.com"
  in
  let a = Fuzz.Exec.eval der and b = Fuzz.Exec.eval der in
  check Alcotest.string "signature" a.Fuzz.Exec.signature b.Fuzz.Exec.signature;
  check Alcotest.string "class" a.Fuzz.Exec.cls b.Fuzz.Exec.cls;
  check Alcotest.bool "nul facet" true a.Fuzz.Exec.nul;
  check Alcotest.string "nul class" "nul-transparency" a.Fuzz.Exec.cls

(* Satellite regression: a campaign (or any caller) that trips breakers
   in a private scope must not poison the process-default scope used by
   decoding_matrix and the one-shot table binaries. *)
let test_scope_isolation () =
  let model = List.hd Tlsparsers.Models.all in
  let scope = Tlsparsers.Harness.Scope.create ~threshold:2 () in
  let boom () = failwith "synthetic model crash" in
  (match Tlsparsers.Harness.observe_decode ~scope model boom with
  | Tlsparsers.Harness.Crashed _ -> ()
  | _ -> Alcotest.fail "expected a crash outcome");
  ignore (Tlsparsers.Harness.observe_decode ~scope model boom);
  (* threshold 2 reached: the scope's breaker is open *)
  (match Tlsparsers.Harness.observe_decode ~scope model (fun () -> Some "x") with
  | Tlsparsers.Harness.Crashed "circuit_open" -> ()
  | _ -> Alcotest.fail "expected the scoped breaker to be open");
  check Alcotest.bool "private scope degraded" true
    (Tlsparsers.Harness.Scope.degraded scope <> []);
  check
    Alcotest.(list (pair string int))
    "default scope untouched" []
    (Tlsparsers.Harness.degraded_models ());
  (* the default scope still invokes the model *)
  (match Tlsparsers.Harness.observe_decode model (fun () -> Some "ok") with
  | Tlsparsers.Harness.Decoded "ok" -> ()
  | _ -> Alcotest.fail "default scope must still invoke the model");
  (* a model outside Models.all keeps its own name-keyed breaker *)
  let outsider = { model with Tlsparsers.Model.name = "outside-models-all" } in
  let scope = Tlsparsers.Harness.Scope.create ~threshold:2 () in
  ignore (Tlsparsers.Harness.observe_decode ~scope outsider boom);
  ignore (Tlsparsers.Harness.observe_decode ~scope outsider boom);
  (match Tlsparsers.Harness.observe_decode ~scope outsider (fun () -> Some "x") with
  | Tlsparsers.Harness.Crashed "circuit_open" -> ()
  | _ -> Alcotest.fail "expected the outsider's scoped breaker to be open");
  check
    Alcotest.(list (pair string int))
    "only the outsider is degraded" [ ("outside-models-all", 2) ]
    (Tlsparsers.Harness.Scope.degraded scope);
  (match Tlsparsers.Harness.observe_decode ~scope model (fun () -> Some "x") with
  | Tlsparsers.Harness.Decoded "x" -> ()
  | _ -> Alcotest.fail "the listed model's breaker must stay closed");
  (* a copy of a listed model shares that model's breaker, by name *)
  let copy = { model with Tlsparsers.Model.name = model.Tlsparsers.Model.name } in
  let scope = Tlsparsers.Harness.Scope.create ~threshold:2 () in
  ignore (Tlsparsers.Harness.observe_decode ~scope copy boom);
  ignore (Tlsparsers.Harness.observe_decode ~scope model boom);
  (match Tlsparsers.Harness.observe_decode ~scope model (fun () -> Some "x") with
  | Tlsparsers.Harness.Crashed "circuit_open" -> ()
  | _ -> Alcotest.fail "a copy's crashes must count on the model's breaker");
  (* per-evaluation scopes mean campaign crashes cannot leak either *)
  let der = Fuzz.Gen.build Fuzz.Gen.Cn Asn1.Str_type.Printable_string "test.com" in
  ignore (Fuzz.Exec.eval der);
  check
    Alcotest.(list (pair string int))
    "default scope untouched after eval" []
    (Tlsparsers.Harness.degraded_models ())

(* Probe telemetry: one evaluation moves each model's
   accept+reject+error sum, and its latency histogram count, by exactly
   the number of probes it made on that model. *)
let parser_probe_totals name =
  let child children = List.assoc_opt name children in
  let counter family =
    match Obs.Registry.find Obs.Registry.default family with
    | Some (Obs.Registry.Labeled_counter lc) -> (
        match child (Obs.Counter.Labeled.children lc) with
        | Some c -> int_of_float (Obs.Counter.value c)
        | None -> 0)
    | _ -> 0
  in
  let observed =
    match Obs.Registry.find Obs.Registry.default "unicert_parser_decode_seconds" with
    | Some (Obs.Registry.Labeled_histogram lh) -> (
        match child (Obs.Histogram.Labeled.children lh) with
        | Some h -> Obs.Histogram.count h
        | None -> 0)
    | _ -> 0
  in
  ( counter "unicert_parser_accept_total" + counter "unicert_parser_reject_total"
    + counter "unicert_parser_error_total",
    observed )

let test_probe_telemetry () =
  let der =
    Fuzz.Gen.build Fuzz.Gen.Cn Asn1.Str_type.Printable_string "pay\x00pal.com"
  in
  let names = List.map (fun m -> m.Tlsparsers.Model.name) Tlsparsers.Models.all in
  let before = List.map parser_probe_totals names in
  let e = Fuzz.Exec.eval der in
  let after = List.map parser_probe_totals names in
  (* '-' is an unsupported field and 'X' a field with no payload: no
     probe; every other token is one probe. *)
  let probed tokens i = if String.contains "-X" tokens.[i] then 0 else 1 in
  List.iteri
    (fun i name ->
      let n = probed e.Fuzz.Exec.cn_tokens i + probed e.Fuzz.Exec.san_tokens i in
      let (c0, h0), (c1, h1) = (List.nth before i, List.nth after i) in
      check Alcotest.int (name ^ " accept+reject+error") n (c1 - c0);
      check Alcotest.int (name ^ " decode_seconds count") n (h1 - h0))
    names;
  check Alcotest.bool "the candidate probes both fields" true
    (String.length e.Fuzz.Exec.cn_tokens = 9 && e.Fuzz.Exec.san <> None)

(* --- strict-first parsing ------------------------------------------ *)

(* A minimal TLV tree, enough to re-encode a certificate with one
   length in non-minimal long form and every enclosing length
   recomputed. *)
type tlv = Leaf of char * string | Node of char * tlv list

let rec tlvs s off stop =
  if off >= stop then []
  else begin
    let l0 = Char.code s.[off + 1] in
    let len, hdr =
      if l0 < 0x80 then (l0, 2)
      else begin
        let k = l0 land 0x7F in
        let n = ref 0 in
        for j = 1 to k do
          n := (!n lsl 8) lor Char.code s.[off + 1 + j]
        done;
        (!n, 2 + k)
      end
    in
    let c = off + hdr in
    let t =
      if Char.code s.[off] land 0x20 <> 0 then Node (s.[off], tlvs s c (c + len))
      else Leaf (s.[off], String.sub s c len)
    in
    t :: tlvs s (c + len) stop
  end

let be_bytes n =
  let rec go n acc = if n = 0 then acc else go (n lsr 8) (String.make 1 (Char.chr (n land 0xFF)) ^ acc) in
  go n ""

let length_octets ~long n =
  if n < 0x80 then if long then "\x81" ^ String.make 1 (Char.chr n) else String.make 1 (Char.chr n)
  else begin
    let b = be_bytes n in
    if long then String.make 1 (Char.chr (0x80 lor (String.length b + 1))) ^ "\x00" ^ b
    else String.make 1 (Char.chr (0x80 lor String.length b)) ^ b
  end

(* Re-encode [der], writing in long form the length of the last element
   of the first SEQUENCE that starts with OBJECT IDENTIFIER [oid]: the
   value of an AttributeTypeAndValue, or an extension's extnValue. *)
let long_length_after ~oid der =
  let oid = Asn1.Oid.encode (Asn1.Oid.of_string_exn oid) in
  let pending = ref true in
  let rec enc ~long t =
    let tag, body =
      match t with
      | Leaf (tag, body) -> (tag, body)
      | Node (tag, kids) ->
          let mark =
            match kids with
            | Leaf ('\x06', o) :: _ when tag = '\x30' && !pending && o = oid ->
                pending := false;
                true
            | _ -> false
          in
          let last = List.length kids - 1 in
          (tag, String.concat "" (List.mapi (fun i k -> enc ~long:(mark && i = last) k) kids))
    in
    String.make 1 tag ^ length_octets ~long (String.length body) ^ body
  in
  String.concat "" (List.map (enc ~long:false) (tlvs der 0 (String.length der)))

let cn_oid = "2.5.4.3"
let san_oid = "2.5.29.17"

let parse_config config der = X509.Certificate.parse ~config der

(* The exactness claim behind the strict-first parse, and [eval]'s
   flags against two independent parses. *)
let parse_once_exact der =
  let strict = parse_config Asn1.Value.strict der
  and lenient = parse_config Asn1.Value.lenient der in
  let implied =
    match (strict, lenient) with
    | Ok c, Ok c' -> c = c'
    | Ok _, Error _ -> false
    | Error _, _ -> true
  in
  let e = Fuzz.Exec.eval der in
  implied
  && e.Fuzz.Exec.strict_ok = Result.is_ok strict
  && e.Fuzz.Exec.lenient_ok = Result.is_ok lenient

let seed_corpus =
  [| Fuzz.Gen.build Fuzz.Gen.Cn Asn1.Str_type.Printable_string "test.com";
     Fuzz.Gen.build Fuzz.Gen.San Asn1.Str_type.Ia5_string "caf\xC3\xA9.example" |]

let candidate_der ?(corpus = seed_corpus) (seed, round, index) =
  (Fuzz.Gen.candidate ~seed ~round ~index ~corpus).Fuzz.Gen.der

let draw = QCheck.Gen.(triple (int_bound 10_000) (int_bound 63) (int_bound 63))
let arb = QCheck.make ~print:(fun (s, r, i) -> Printf.sprintf "seed %d round %d index %d" s r i) draw

let prop_parse_once_candidates =
  QCheck.Test.make ~name:"parse once is exact: candidates" ~count:300 arb (fun t ->
      parse_once_exact (candidate_der t))

let prop_parse_once_mutants =
  QCheck.Test.make ~name:"parse once is exact: mutator outputs" ~count:300 arb
    (fun (seed, k, index) ->
      let plan = Faults.Mutator.plan ~seed ~rate:1.0 () in
      let der, _ = Faults.Mutator.mutate plan ~index seed_corpus.(k land 1) in
      parse_once_exact der)

let prop_parse_once_long_lengths =
  QCheck.Test.make ~name:"parse once is exact: non-minimal CN/SAN lengths" ~count:300
    QCheck.(pair bool arb)
    (fun (cn, t) ->
      (* an empty corpus draws structured candidates only: well-formed DER *)
      let der = candidate_der ~corpus:[||] t in
      parse_once_exact (long_length_after ~oid:(if cn then cn_oid else san_oid) der))

(* The rewrite does reach the lenient-only path, and the lenient parse
   still yields the payloads the models are probed with. *)
let test_lenient_only_path () =
  let der = Fuzz.Gen.build Fuzz.Gen.Cn Asn1.Str_type.Utf8_string "caf\xC3\xA9.example" in
  let plain = Fuzz.Exec.eval der in
  List.iter
    (fun oid ->
      let long = long_length_after ~oid der in
      check Alcotest.bool (oid ^ " rewritten") true (long <> der);
      check Alcotest.bool (oid ^ " strict rejects") true
        (Result.is_error (parse_config Asn1.Value.strict long));
      let e = Fuzz.Exec.eval long in
      check Alcotest.bool (oid ^ " eval strict_ok") false e.Fuzz.Exec.strict_ok;
      check Alcotest.bool (oid ^ " eval lenient_ok") true e.Fuzz.Exec.lenient_ok;
      check Alcotest.bool (oid ^ " same CN") true (e.Fuzz.Exec.cn = plain.Fuzz.Exec.cn);
      check Alcotest.(option string) (oid ^ " same SAN") plain.Fuzz.Exec.san e.Fuzz.Exec.san;
      check Alcotest.bool (oid ^ " parse-once exact") true (parse_once_exact long))
    [ cn_oid; san_oid ]

let test_mutate_rejected () =
  let der = Fuzz.Gen.build Fuzz.Gen.Cn Asn1.Str_type.Printable_string "test.com" in
  let plan = Faults.Mutator.plan ~seed:42 ~rate:1.0 () in
  (* a predicate that never rejects exhausts the attempt cap *)
  (match Faults.Mutator.mutate_rejected plan ~index:5 ~rejects:(fun _ -> None) der with
  | Error { Faults.Mutator.index; attempts } ->
      check Alcotest.int "index" 5 index;
      check Alcotest.int "attempts" Faults.Mutator.default_max_attempts attempts
  | Ok _ -> Alcotest.fail "expected exhaustion");
  (* the parse predicate rejects on the first broken mutant *)
  let rejects bad =
    match X509.Certificate.parse bad with Error e -> Some e | Ok _ -> None
  in
  (match Faults.Mutator.mutate_rejected plan ~index:5 ~rejects der with
  | Ok (bad, _, _) -> check Alcotest.bool "mutant differs" true (bad <> der)
  | Error _ -> Alcotest.fail "a certificate must be corruptible");
  (* deterministic in (seed, index) *)
  let run () = Faults.Mutator.mutate_rejected plan ~index:5 ~rejects der in
  check Alcotest.bool "deterministic" true (run () = run ());
  (match Faults.Mutator.mutate_rejected ~max_attempts:0 plan ~index:0 ~rejects der with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_attempts 0 must be rejected")

let test_new_mutation_kinds () =
  check Alcotest.bool "nul_inject registered" true
    (List.mem Faults.Mutator.Nul_inject Faults.Mutator.all_kinds);
  check Alcotest.bool "ctrl_inject registered" true
    (List.mem Faults.Mutator.Ctrl_inject Faults.Mutator.all_kinds);
  List.iter
    (fun k ->
      check Alcotest.bool
        ("kind name roundtrip " ^ Faults.Mutator.kind_name k)
        true
        (Faults.Mutator.kind_of_name (Faults.Mutator.kind_name k) = Some k))
    Faults.Mutator.all_kinds;
  (* string-content injection keeps the DER skeleton: length preserved *)
  let der = Fuzz.Gen.build Fuzz.Gen.Cn Asn1.Str_type.Printable_string "test.com" in
  List.iter
    (fun kind ->
      let plan =
        Faults.Mutator.plan ~kinds:[ kind ] ~seed:7 ~rate:1.0 ()
      in
      let bad, k = Faults.Mutator.mutate plan ~index:3 der in
      check Alcotest.bool "kind echoed" true (k = kind);
      check Alcotest.bool "changed" true (bad <> der);
      check Alcotest.int "length preserved" (String.length der)
        (String.length bad))
    [ Faults.Mutator.Nul_inject; Faults.Mutator.Ctrl_inject ]

let test_minimize () =
  let der =
    Fuzz.Gen.build Fuzz.Gen.Cn Asn1.Str_type.Printable_string
      "paypal.com\x00.evil.example"
  in
  let before = Fuzz.Exec.eval der in
  let min_der = Fuzz.Minimize.minimize der in
  let after = Fuzz.Exec.eval min_der in
  check Alcotest.bool "shrinks" true (String.length min_der < String.length der);
  check Alcotest.string "class preserved" before.Fuzz.Exec.cls after.Fuzz.Exec.cls;
  check Alcotest.string "signature preserved" before.Fuzz.Exec.signature
    after.Fuzz.Exec.signature

let test_findings_roundtrip () =
  let f =
    { Fuzz.Findings.round = 3; index = 17; exec = 209;
      cluster = "nul-transparency-deadbeef"; cls = "nul-transparency";
      signature = "x509=PP|cn=IA5String:abbbbbbbb|san=X|idna=-|nul=1|ctl=0|conf=0";
      op = "nul_ctrl"; context = "cn"; declared = "IA5String"; count = 4;
      der = "\x30\x03\x02\x01\x00"; min_der = Some "\x30\x00" }
  in
  (match Fuzz.Findings.of_json (Fuzz.Findings.to_json f) with
  | Ok f' -> check Alcotest.bool "roundtrip" true (f = f')
  | Error msg -> Alcotest.fail msg);
  (match Fuzz.Findings.of_json (Fuzz.Findings.to_json { f with min_der = None }) with
  | Ok f' -> check Alcotest.bool "null min_der" true (f'.Fuzz.Findings.min_der = None)
  | Error msg -> Alcotest.fail msg)

let test_campaign_deterministic () =
  let cfg jobs =
    { Fuzz.Campaign.default_config with
      Fuzz.Campaign.seed = 19; budget = 48; round_size = 16; jobs }
  in
  let a = Fuzz.Campaign.run (cfg 1) in
  let b = Fuzz.Campaign.run (cfg 2) in
  check Alcotest.int "executions" 48 a.Fuzz.Campaign.executions;
  check Alcotest.bool "status completed" true
    (a.Fuzz.Campaign.status = Fuzz.Campaign.Completed);
  check Alcotest.bool "findings identical across jobs" true
    (a.Fuzz.Campaign.findings = b.Fuzz.Campaign.findings);
  check Alcotest.int "signatures identical" a.Fuzz.Campaign.signatures
    b.Fuzz.Campaign.signatures;
  check
    Alcotest.(list (pair string int))
    "no degraded models without injection" [] a.Fuzz.Campaign.degraded;
  check
    Alcotest.(list (pair string int))
    "campaign leaves the default scope clean" []
    (Tlsparsers.Harness.degraded_models ())

(* Golden campaign digests.  [campaign_digest] hashes what the
   benchmark's fuzz workload pins: the signature count, the first
   disagreement, the executions and every finding's cluster and
   signature, in discovery order.  The determinism checks above compare
   the implementation with itself; these pin its output, so an
   optimisation of the generator or the evaluator must leave them
   unchanged, and a fuzz change that is meant must update them. *)
let campaign_digest (r : Fuzz.Campaign.t) =
  Ucrypto.Sha256.hex
    (String.concat "\n"
       (Printf.sprintf "signatures=%d first=%s executions=%d"
          r.Fuzz.Campaign.signatures
          (match r.Fuzz.Campaign.first_disagreement with
          | Some e -> string_of_int e
          | None -> "none")
          r.Fuzz.Campaign.executions
       :: List.map
            (fun (f : Fuzz.Findings.finding) ->
              f.Fuzz.Findings.cluster ^ "/" ^ f.Fuzz.Findings.signature)
            r.Fuzz.Campaign.findings))

let golden_campaigns =
  [ (1, 91, "142624dfe32d7819f8472b7c423d0aca277e360de9654823e5add4de3fcb4617");
    (2, 94, "17b1c6673539f835faffd4254dfad0e753d9abe553de41c1d70918bff9c67eb3") ]

let test_campaign_golden () =
  List.iter
    (fun (seed, signatures, digest) ->
      let r =
        Fuzz.Campaign.run
          { Fuzz.Campaign.default_config with Fuzz.Campaign.seed; budget = 2048 }
      in
      let label = Printf.sprintf "seed %d" seed in
      check Alcotest.int (label ^ " executions") 2048 r.Fuzz.Campaign.executions;
      check Alcotest.int (label ^ " signatures") signatures r.Fuzz.Campaign.signatures;
      check Alcotest.string (label ^ " digest") digest (campaign_digest r))
    golden_campaigns

(* The regression corpus: minimized reproducers for anomaly clusters
   beyond Tables 4/5, discovered by the pinned seed-7 campaign.  Each
   must still evaluate to its cluster's class and outcome signature. *)
let reproducers =
  [
    ( "idna-blindspot-afb26948.pem", "idna-blindspot",
      "x509=PP|cn=PrintableString:aaaaaaaaa|san=-aaaaa-aa|idna=encoded_label_too_long+unpermitted_char|nul=0|ctl=0|conf=0"
    );
    ( "nul-transparency-62985454.pem", "nul-transparency",
      "x509=PP|cn=PrintableString:aaaaaaaaa|san=-aaaaa-aa|idna=-|nul=1|ctl=0|conf=0"
    );
    ( "ctl-passthrough-3a542719.pem", "ctl-passthrough",
      "x509=PP|cn=PrintableString:aaaaaaaaa|san=-aaaaa-aa|idna=-|nul=0|ctl=1|conf=0"
    );
    ( "confusable-passthrough-a5d74768.pem", "confusable-passthrough",
      "x509=PP|cn=PrintableString:aaaaaaaaa|san=-abbRc-Rb|idna=-|nul=0|ctl=0|conf=1"
    );
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_reproducers () =
  check Alcotest.bool "at least 3 beyond-table clusters" true
    (List.length
       (List.sort_uniq compare (List.map (fun (_, c, _) -> c) reproducers))
    >= 3);
  List.iter
    (fun (file, cls, signature) ->
      let pem = read_file (Filename.concat "fuzz_corpus" file) in
      let der =
        match X509.Pem.decode_certificate pem with
        | Ok der -> der
        | Error msg -> Alcotest.fail (file ^ ": " ^ msg)
      in
      let e = Fuzz.Exec.eval der in
      check Alcotest.bool (file ^ " beyond tables") true
        (Fuzz.Exec.beyond_tables cls);
      check Alcotest.string (file ^ " class") cls e.Fuzz.Exec.cls;
      check Alcotest.string (file ^ " signature") signature
        e.Fuzz.Exec.signature)
    reproducers

let suite =
  [
    Alcotest.test_case "generator purity" `Quick test_gen_pure;
    Alcotest.test_case "evaluation determinism" `Quick test_eval_pure;
    Alcotest.test_case "breaker scope isolation" `Quick test_scope_isolation;
    Alcotest.test_case "mutate_rejected exhaustion guard" `Quick
      test_mutate_rejected;
    Alcotest.test_case "new mutation kinds" `Quick test_new_mutation_kinds;
    Alcotest.test_case "minimizer preserves signature" `Quick test_minimize;
    Alcotest.test_case "findings JSONL roundtrip" `Quick test_findings_roundtrip;
    Alcotest.test_case "campaign jobs determinism" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "reproducer corpus regression" `Quick test_reproducers;
    Alcotest.test_case "golden campaign digests" `Quick test_campaign_golden;
    Alcotest.test_case "probe telemetry per model" `Quick test_probe_telemetry;
    Alcotest.test_case "lenient-only path" `Quick test_lenient_only_path;
    QCheck_alcotest.to_alcotest prop_parse_once_candidates;
    QCheck_alcotest.to_alcotest prop_parse_once_mutants;
    QCheck_alcotest.to_alcotest prop_parse_once_long_lengths;
  ]
