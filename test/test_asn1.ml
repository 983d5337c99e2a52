(* Tests for the ASN.1 layer: OIDs, DER reader/writer, string types,
   time. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- OIDs ----------------------------------------------------------- *)

let test_oid_strings () =
  check (Alcotest.option (Alcotest.list Alcotest.int)) "parse" (Some [ 2; 5; 4; 3 ])
    (Asn1.Oid.of_string "2.5.4.3");
  check Alcotest.string "print" "1.3.6.1.5.5.7.48.1"
    (Asn1.Oid.to_string (Asn1.Oid.of_string_exn "1.3.6.1.5.5.7.48.1"));
  check (Alcotest.option (Alcotest.list Alcotest.int)) "reject single arc" None
    (Asn1.Oid.of_string "2");
  check (Alcotest.option (Alcotest.list Alcotest.int)) "reject empty" None
    (Asn1.Oid.of_string "");
  check (Alcotest.option (Alcotest.list Alcotest.int)) "reject junk" None
    (Asn1.Oid.of_string "1.two.3")

let test_oid_der () =
  (* Known encoding: 1.2.840.113549 = 2A 86 48 86 F7 0D *)
  check Alcotest.string "rsa arc" "\x2A\x86\x48\x86\xF7\x0D"
    (Asn1.Oid.encode [ 1; 2; 840; 113549 ]);
  check
    (Alcotest.result (Alcotest.list Alcotest.int) Alcotest.string)
    "decode" (Ok [ 1; 2; 840; 113549 ])
    (Asn1.Oid.decode "\x2A\x86\x48\x86\xF7\x0D")

let oid_gen =
  QCheck.make
    ~print:(fun l -> String.concat "." (List.map string_of_int l))
    QCheck.Gen.(
      map2
        (fun head tail -> head @ tail)
        (oneofl [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 5 ]; [ 2; 39 ] ])
        (list_size (int_range 0 6) (int_range 0 1_000_000)))

let prop_oid_roundtrip =
  QCheck.Test.make ~name:"oid der roundtrip" ~count:300 oid_gen (fun oid ->
      Asn1.Oid.decode (Asn1.Oid.encode oid) = Ok oid)

(* --- string types --------------------------------------------------- *)

let test_str_types () =
  List.iter
    (fun st ->
      check (Alcotest.option Alcotest.int) (Asn1.Str_type.name st)
        (Some (Asn1.Str_type.tag st))
        (Option.map Asn1.Str_type.tag (Asn1.Str_type.of_tag (Asn1.Str_type.tag st)));
      check
        (Alcotest.option Alcotest.string)
        "name roundtrip"
        (Some (Asn1.Str_type.name st))
        (Option.map Asn1.Str_type.name (Asn1.Str_type.of_name (Asn1.Str_type.name st))))
    Asn1.Str_type.all

let test_str_validation () =
  let open Asn1.Str_type in
  let rejected st cps = List.filter (fun cp -> not (allows st cp)) cps in
  check (Alcotest.list Alcotest.int) "printable rejects @" [ Char.code '@' ]
    (rejected Printable_string [ 0x61; Char.code '@'; 0x62 ]);
  check (Alcotest.list Alcotest.int) "ia5 rejects non-ascii" [ 0xE9 ]
    (rejected Ia5_string [ 0x61; 0xE9 ]);
  check (Alcotest.list Alcotest.int) "utf8 allows all scalars" []
    (rejected Utf8_string [ 0x4E2D; 0x1F600 ]);
  check (Alcotest.list Alcotest.int) "bmp rejects astral" [ 0x1F600 ]
    (rejected Bmp_string [ 0x41; 0x1F600 ]);
  check (Alcotest.list Alcotest.int) "numeric rejects letters" [ Char.code 'a' ]
    (rejected Numeric_string [ Char.code '1'; Char.code '2'; Char.code 'a' ])

(* --- DER values ------------------------------------------------------ *)

let value_testable = Alcotest.testable Asn1.Value.pp ( = )

let test_der_primitives () =
  let open Asn1.Value in
  let rt v =
    match decode (encode v) with
    | Ok v' -> check value_testable "roundtrip" v v'
    | Error e -> Alcotest.failf "decode failed: %a" pp_error e
  in
  rt (Boolean true);
  rt (Boolean false);
  rt (integer_of_int 0);
  rt (integer_of_int 127);
  rt (integer_of_int 128);
  rt (integer_of_int 65535);
  rt Null;
  rt (Oid [ 2; 5; 4; 3 ]);
  rt (Octet_string "\x00\x01\xFF");
  rt (Bit_string (3, "\xA0"));
  rt (Str (Asn1.Str_type.Utf8_string, "caf\xC3\xA9"));
  rt (Str (Asn1.Str_type.Printable_string, "hello"));
  rt (Utc_time "240101000000Z");
  rt (Sequence [ Boolean true; Null ]);
  rt (Set [ integer_of_int 1; integer_of_int 2 ]);
  rt (Implicit (2, "test.com"));
  rt (Explicit (3, [ Sequence [] ]))

let test_der_long_lengths () =
  let open Asn1.Value in
  (* Content over 127 bytes forces the long length form. *)
  let v = Octet_string (String.make 300 'x') in
  (match decode (encode v) with
  | Ok v' -> check value_testable "long form" v v'
  | Error e -> Alcotest.failf "%a" pp_error e);
  let v = Octet_string (String.make 70000 'y') in
  match decode (encode v) with
  | Ok v' -> check value_testable "very long form" v v'
  | Error e -> Alcotest.failf "%a" pp_error e

let test_der_malformed () =
  let open Asn1.Value in
  let reject name bytes =
    match decode bytes with
    | Ok _ -> Alcotest.failf "%s should have failed" name
    | Error _ -> ()
  in
  reject "empty" "";
  reject "truncated length" "\x30\x82\x01";
  reject "content overrun" "\x30\x05\x01\x01";
  reject "trailing bytes" "\x05\x00\x00";
  reject "indefinite length" "\x30\x80\x00\x00";
  reject "boolean wrong size" "\x01\x02\x00\x00";
  reject "null with content" "\x05\x01\x00";
  reject "empty integer" "\x02\x00"

let test_der_lenient_lengths () =
  (* A non-minimal length (0x81 0x05 for length 5) is rejected strictly
     but accepted leniently. *)
  let bytes = "\x04\x81\x05hello" in
  (match Asn1.Value.decode bytes with
  | Ok _ -> Alcotest.fail "strict should reject non-minimal length"
  | Error _ -> ());
  match Asn1.Value.decode ~config:Asn1.Value.lenient bytes with
  | Ok (Asn1.Value.Octet_string "hello") -> ()
  | Ok v -> Alcotest.failf "unexpected %a" Asn1.Value.pp v
  | Error e -> Alcotest.failf "lenient should accept: %a" Asn1.Value.pp_error e

let test_der_depth_guard () =
  let rec nest n acc = if n = 0 then acc else nest (n - 1) (Asn1.Value.Sequence [ acc ]) in
  let deep = nest 100 Asn1.Value.Null in
  match Asn1.Value.decode (Asn1.Value.encode deep) with
  | Ok _ -> Alcotest.fail "depth guard should trigger"
  | Error _ -> ()

let value_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun b -> Asn1.Value.Boolean b) bool;
        map (fun n -> Asn1.Value.integer_of_int n) (int_range (-100000) 100000);
        return Asn1.Value.Null;
        map (fun s -> Asn1.Value.Octet_string s) (string_size (int_range 0 20));
        map (fun s -> Asn1.Value.Str (Asn1.Str_type.Utf8_string, s)) (string_size (int_range 0 20));
        map (fun s -> Asn1.Value.Implicit (2, s)) (string_size (int_range 0 10)) ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (3, leaf);
          (1, map (fun l -> Asn1.Value.Sequence l) (list_size (int_range 0 4) (tree (depth - 1))));
          (1, map (fun l -> Asn1.Value.Explicit (1, l)) (list_size (int_range 0 3) (tree (depth - 1)))) ]
  in
  QCheck.make ~print:(Format.asprintf "%a" Asn1.Value.pp) (tree 3)

let prop_der_roundtrip =
  QCheck.Test.make ~name:"DER value roundtrip" ~count:500 value_gen (fun v ->
      match Asn1.Value.decode (Asn1.Value.encode v) with
      | Ok v' -> v = v'
      | Error _ -> false)

(* --- time ------------------------------------------------------------ *)

let time_testable =
  Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (Asn1.Time.to_generalized t)) ( = )

let test_time_parsing () =
  check
    (Alcotest.result time_testable Alcotest.string)
    "utctime" (Ok (Asn1.Time.make ~hour:12 ~minute:30 ~second:15 2024 6 1))
    (Asn1.Time.of_utctime "240601123015Z");
  check
    (Alcotest.result time_testable Alcotest.string)
    "window pre-1950" (Ok (Asn1.Time.make 1999 12 31))
    (Asn1.Time.of_utctime "991231000000Z");
  check
    (Alcotest.result time_testable Alcotest.string)
    "generalized" (Ok (Asn1.Time.make 2050 1 1))
    (Asn1.Time.of_generalized "20500101000000Z");
  check Alcotest.bool "reject short" true
    (Result.is_error (Asn1.Time.of_utctime "2406011230Z"));
  check Alcotest.bool "reject bad month" true
    (Result.is_error (Asn1.Time.of_utctime "241301000000Z"))

let test_time_arithmetic () =
  let t = Asn1.Time.make 2024 2 28 in
  check time_testable "leap day" (Asn1.Time.make 2024 2 29) (Asn1.Time.add_days t 1);
  check time_testable "into march" (Asn1.Time.make 2024 3 1) (Asn1.Time.add_days t 2);
  check Alcotest.int "leap year span" 366
    (Asn1.Time.days_between (Asn1.Time.make 2024 1 1) (Asn1.Time.make 2025 1 1));
  check Alcotest.int "ninety" 90
    (Asn1.Time.days_between (Asn1.Time.make 2025 1 1)
       (Asn1.Time.add_days (Asn1.Time.make 2025 1 1) 90))

let date_gen =
  QCheck.make
    ~print:(fun (y, m, d) -> Printf.sprintf "%d-%d-%d" y m d)
    QCheck.Gen.(
      int_range 1990 2060 >>= fun y ->
      int_range 1 12 >>= fun m ->
      int_range 1 (Asn1.Time.days_in_month y m) >>= fun d -> return (y, m, d))

let prop_add_days_roundtrip =
  QCheck.Test.make ~name:"add_days/days_between inverse" ~count:300
    (QCheck.pair date_gen QCheck.(int_range (-2000) 2000))
    (fun ((y, m, d), n) ->
      let t = Asn1.Time.make y m d in
      let t' = Asn1.Time.add_days t n in
      Asn1.Time.days_between t t' = n)

let prop_utctime_roundtrip =
  QCheck.Test.make ~name:"utctime roundtrip" ~count:300 date_gen (fun (y, m, d) ->
      (* Map into the UTCTime 1950–2049 window, re-clamping the day for
         the remapped year's month length. *)
      let y = 1970 + (y mod 80) in
      let d = min d (Asn1.Time.days_in_month y m) in
      let t = Asn1.Time.make y m d in
      Asn1.Time.of_utctime (Asn1.Time.to_utctime t) = Ok t)

let test_writer_primitives () =
  check Alcotest.string "short length" "\x05" (Asn1.Writer.definite_length 5);
  check Alcotest.string "long length 200" "\x81\xC8" (Asn1.Writer.definite_length 200);
  check Alcotest.string "long length 65535" "\x82\xFF\xFF" (Asn1.Writer.definite_length 65535)

let test_oid_edge_arcs () =
  (* First-arc packing: 2.39 -> byte 119; 0.0 -> byte 0. *)
  check Alcotest.string "2.39" "\x77" (Asn1.Oid.encode [ 2; 39 ]);
  check Alcotest.string "0.0" "\x00" (Asn1.Oid.encode [ 0; 0 ]);
  check (Alcotest.result (Alcotest.list Alcotest.int) Alcotest.string) "2.48 decodes"
    (Ok [ 2; 48 ]) (Asn1.Oid.decode (Asn1.Oid.encode [ 2; 48 ]))

let suite =
  [
    Alcotest.test_case "oid strings" `Quick test_oid_strings;
    Alcotest.test_case "oid der known vector" `Quick test_oid_der;
    Alcotest.test_case "oid edge arcs" `Quick test_oid_edge_arcs;
    Alcotest.test_case "writer primitives" `Quick test_writer_primitives;
    Alcotest.test_case "string type tables" `Quick test_str_types;
    Alcotest.test_case "string type validation" `Quick test_str_validation;
    Alcotest.test_case "der primitives roundtrip" `Quick test_der_primitives;
    Alcotest.test_case "der long lengths" `Quick test_der_long_lengths;
    Alcotest.test_case "der malformed rejected" `Quick test_der_malformed;
    Alcotest.test_case "der lenient lengths" `Quick test_der_lenient_lengths;
    Alcotest.test_case "der depth guard" `Quick test_der_depth_guard;
    Alcotest.test_case "time parsing" `Quick test_time_parsing;
    Alcotest.test_case "time arithmetic" `Quick test_time_arithmetic;
    qtest prop_oid_roundtrip;
    qtest prop_der_roundtrip;
    qtest prop_add_days_roundtrip;
    qtest prop_utctime_roundtrip;
  ]
