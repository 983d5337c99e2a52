(* Unit and property tests for the unicode library: codecs, blocks,
   properties, NFC, confusables. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- generators ----------------------------------------------------- *)

let scalar_cp =
  QCheck.Gen.(
    frequency
      [ (6, int_range 0x20 0x7E);
        (3, int_range 0xA0 0x2FFF);
        (2, int_range 0x3000 0xFFFD);
        (1, int_range 0x10000 0x10FFFF) ]
    |> map (fun cp -> if Unicode.Cp.is_surrogate cp then 0xFFFD else cp))

let scalar_array =
  QCheck.make
    ~print:(fun a ->
      String.concat ";" (List.map Unicode.Cp.to_string (Array.to_list a)))
    QCheck.Gen.(array_size (int_range 0 32) scalar_cp)

(* --- codec tests ---------------------------------------------------- *)

let test_utf8_known () =
  let cps = Unicode.Codec.cps_of_utf8 in
  check (Alcotest.array Alcotest.int) "ascii" [| 0x68; 0x69 |] (cps "hi");
  check (Alcotest.array Alcotest.int) "2-byte" [| 0xE9 |] (cps "\xC3\xA9");
  check (Alcotest.array Alcotest.int) "3-byte" [| 0x4E2D |] (cps "\xE4\xB8\xAD");
  check (Alcotest.array Alcotest.int) "4-byte" [| 0x1F600 |] (cps "\xF0\x9F\x98\x80")

let test_utf8_malformed () =
  let bad =
    [ "\xC0\xAF" (* overlong *); "\xED\xA0\x80" (* surrogate *);
      "\xF4\x90\x80\x80" (* > U+10FFFF *); "\xC3" (* truncated *);
      "\xFF" (* invalid lead *); "\x80" (* stray continuation *) ]
  in
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "reject %S" s) false
        (Unicode.Codec.well_formed_utf8 s))
    bad

let test_ascii_policies () =
  let open Unicode.Codec in
  check Alcotest.bool "strict fails" true (Result.is_error (decode Ascii "a\xFF"));
  check (Alcotest.array Alcotest.int) "replace"
    [| 0x61; 0xFFFD |]
    (decode_exn ~policy:(Replace 0xFFFD) Ascii "a\xFF");
  check (Alcotest.array Alcotest.int) "skip" [| 0x61 |]
    (decode_exn ~policy:Skip Ascii "a\xFF");
  check Alcotest.string "escape"
    "a\\xFF"
    (utf8_of_cps (decode_exn ~policy:Escape_hex Ascii "a\xFF"))

let test_ucs2_utf16 () =
  let open Unicode.Codec in
  check (Alcotest.array Alcotest.int) "ucs2" [| 0x6769 |] (decode_exn Ucs2 "gi");
  check (Alcotest.array Alcotest.int) "utf16 pair" [| 0x1F600 |]
    (decode_exn Utf16be "\xD8\x3D\xDE\x00");
  check Alcotest.bool "utf16 unpaired high fails" true
    (Result.is_error (decode Utf16be "\xD8\x3D\x00a"));
  check Alcotest.bool "ucs2 odd fails" true (Result.is_error (decode Ucs2 "abc"));
  (* UCS-2 passes surrogate units through. *)
  check (Alcotest.array Alcotest.int) "ucs2 surrogate raw" [| 0xD83D; 0xDE00 |]
    (decode_exn Ucs2 "\xD8\x3D\xDE\x00")

let prop_utf8_roundtrip =
  QCheck.Test.make ~name:"utf8 encode/decode roundtrip" ~count:500 scalar_array
    (fun cps ->
      Unicode.Codec.cps_of_utf8 (Unicode.Codec.utf8_of_cps cps) = cps)

let prop_latin1_roundtrip =
  QCheck.Test.make ~name:"latin1 roundtrip" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 64))
    (fun s ->
      match Unicode.Codec.encode Unicode.Codec.Iso8859_1 (Unicode.Codec.cps_of_latin1 s) with
      | Ok s' -> String.equal s s'
      | Error _ -> false)

let prop_utf16_roundtrip =
  QCheck.Test.make ~name:"utf16 roundtrip" ~count:300 scalar_array (fun cps ->
      match Unicode.Codec.encode Unicode.Codec.Utf16be cps with
      | Ok bytes -> Unicode.Codec.decode_exn Unicode.Codec.Utf16be bytes = cps
      | Error _ -> false)

(* --- blocks --------------------------------------------------------- *)

let test_blocks_lookup () =
  let name_of cp = Option.map (fun b -> b.Unicode.Blocks.name) (Unicode.Blocks.find cp) in
  let block = Alcotest.(option string) in
  check block "latin" (Some "Basic Latin") (name_of 0x41);
  check block "cjk" (Some "CJK Unified Ideographs") (name_of 0x4E2D);
  check block "hangul" (Some "Hangul Syllables") (name_of 0xAC00);
  check block "emoji" (Some "Emoticons") (name_of 0x1F600);
  check block "no block" None (name_of 0x2FE0)

let test_blocks_structure () =
  (* Ranges are sorted, non-overlapping, and aligned. *)
  let a = Unicode.Blocks.all in
  for i = 0 to Array.length a - 2 do
    if a.(i).Unicode.Blocks.last >= a.(i + 1).Unicode.Blocks.first then
      Alcotest.failf "blocks %s and %s overlap" a.(i).Unicode.Blocks.name
        a.(i + 1).Unicode.Blocks.name
  done;
  Array.iter
    (fun b ->
      if b.Unicode.Blocks.first mod 16 <> 0 then
        Alcotest.failf "block %s start not 16-aligned" b.Unicode.Blocks.name)
    a;
  check Alcotest.bool "over 300 blocks" true (Unicode.Blocks.count > 300)

let prop_block_find =
  QCheck.Test.make ~name:"find agrees with linear scan" ~count:300
    QCheck.(int_range 0 0x10FFFF)
    (fun cp ->
      let linear =
        Array.to_list Unicode.Blocks.all
        |> List.find_opt (fun b ->
               cp >= b.Unicode.Blocks.first && cp <= b.Unicode.Blocks.last)
      in
      Unicode.Blocks.find cp = linear)

(* --- props ---------------------------------------------------------- *)

let test_props () =
  check Alcotest.bool "NUL is C0" true (Unicode.Props.is_c0_control 0x00);
  check Alcotest.bool "DEL" true (Unicode.Props.is_del 0x7F);
  check Alcotest.bool "C1" true (Unicode.Props.is_c1_control 0x85);
  check Alcotest.bool "ZWSP layout" true (Unicode.Props.is_layout_control 0x200B);
  check Alcotest.bool "RLO bidi" true (Unicode.Props.is_bidi_control 0x202E);
  check Alcotest.bool "NBSP whitespace" true (Unicode.Props.is_nonascii_whitespace 0xA0);
  check Alcotest.bool "ideographic space" true
    (Unicode.Props.is_nonascii_whitespace 0x3000);
  check Alcotest.bool "space not invisible-class" false
    (Unicode.Props.is_invisible 0x20);
  check Alcotest.bool "soft hyphen format" true (Unicode.Props.is_format 0xAD);
  check Alcotest.bool "BOM format" true (Unicode.Props.is_format 0xFEFF)

let test_printable_string_charset () =
  let allowed = "ABCxyz019 '()+,-./:=?" in
  String.iter
    (fun c ->
      check Alcotest.bool (Printf.sprintf "allow %C" c) true
        (Unicode.Props.is_printable_string_char (Char.code c)))
    allowed;
  List.iter
    (fun c ->
      check Alcotest.bool (Printf.sprintf "forbid %C" c) false
        (Unicode.Props.is_printable_string_char (Char.code c)))
    [ '@'; '&'; '*'; '_'; '!'; ';'; '<'; '#'; '"' ]

(* --- NFC ------------------------------------------------------------ *)

let nfc_utf8 = Unicode.Normalize.utf8_to_nfc

let test_nfc_known () =
  check Alcotest.string "e + acute" "\xC3\xA9" (nfc_utf8 "e\xCC\x81");
  check Alcotest.string "composed stays" "\xC3\xA9" (nfc_utf8 "\xC3\xA9");
  check Alcotest.string "I + circumflex" "\xC3\x8Ele" (nfc_utf8 "I\xCC\x82le");
  check Alcotest.string "greek alpha tonos" "\xCE\xAC" (nfc_utf8 "\xCE\xB1\xCC\x81");
  check Alcotest.string "cyrillic io" "\xD1\x91" (nfc_utf8 "\xD0\xB5\xCC\x88");
  (* Hangul composition. *)
  check Alcotest.string "hangul ga" "\xEA\xB0\x80" (nfc_utf8 "\xE1\x84\x80\xE1\x85\xA1");
  (* Angstrom sign is a singleton: decomposes to A-ring and recomposes
     to the letter form. *)
  check Alcotest.string "angstrom" "\xC3\x85" (nfc_utf8 "\xE2\x84\xAB")

let test_nfc_vietnamese () =
  (* Multi-level composition: base + circumflex + tone. *)
  check (Alcotest.array Alcotest.int) "e-circumflex-acute" [| 0x1EBF |]
    (Unicode.Normalize.to_nfc [| 0x65; 0x302; 0x301 |]);
  check (Alcotest.array Alcotest.int) "a-circumflex-dot" [| 0x1EAD |]
    (Unicode.Normalize.to_nfc [| 0x61; 0x302; 0x323 |]);
  check (Alcotest.array Alcotest.int) "u-horn" [| 0x1B0 |]
    (Unicode.Normalize.to_nfc [| 0x75; 0x31B |]);
  check (Alcotest.array Alcotest.int) "u-horn-dot" [| 0x1EF1 |]
    (Unicode.Normalize.to_nfc [| 0x75; 0x31B; 0x323 |]);
  (* NFD of a two-level composition is fully flattened and ordered. *)
  check (Alcotest.array Alcotest.int) "nfd of 1EAD" [| 0x61; 0x323; 0x302 |]
    (Unicode.Normalize.decompose [| 0x1EAD |])

let test_nfc_ordering () =
  (* a + acute(230) + cedilla(202): canonical order puts the cedilla
     first, then a+acute composes across it. *)
  let out = Unicode.Normalize.to_nfc [| 0x61; 0x301; 0x327 |] in
  check (Alcotest.array Alcotest.int) "reorder+compose" [| 0xE1; 0x327 |] out

let test_nfc_blocked () =
  (* a + cedilla + acute: the cedilla (ccc 202) blocks nothing for the
     acute (ccc 230), so composition still happens. *)
  let out = Unicode.Normalize.to_nfc [| 0x61; 0x327; 0x301 |] in
  check (Alcotest.array Alcotest.int) "blocked composition" [| 0xE1; 0x327 |] out;
  (* Two acutes: the second is blocked (equal ccc). *)
  let out = Unicode.Normalize.to_nfc [| 0x61; 0x301; 0x301 |] in
  check (Alcotest.array Alcotest.int) "double acute" [| 0xE1; 0x301 |] out

let repertoire_cp =
  (* Code points inside the NFC table's coverage. *)
  QCheck.Gen.(
    frequency
      [ (4, int_range 0x20 0x7E); (3, int_range 0xC0 0x17F);
        (2, int_range 0x390 0x3CE); (2, int_range 0x400 0x45F);
        (1, int_range 0x300 0x30C); (1, int_range 0xAC00 0xAC40) ])

let repertoire_array =
  QCheck.make
    ~print:(fun a -> String.concat ";" (List.map string_of_int (Array.to_list a)))
    QCheck.Gen.(array_size (int_range 0 24) repertoire_cp)

let prop_nfc_idempotent =
  QCheck.Test.make ~name:"NFC idempotent" ~count:500 repertoire_array (fun cps ->
      let once = Unicode.Normalize.to_nfc cps in
      Unicode.Normalize.to_nfc once = once)

let prop_nfd_nfc_stable =
  QCheck.Test.make ~name:"NFC of NFD equals NFC" ~count:500 repertoire_array
    (fun cps ->
      Unicode.Normalize.to_nfc (Unicode.Normalize.decompose cps)
      = Unicode.Normalize.to_nfc cps)

(* --- confusables ---------------------------------------------------- *)

let test_confusables () =
  check Alcotest.bool "cyrillic a" true
    (Unicode.Confusables.confusable "paypal" "p\xD0\xB0ypal");
  check Alcotest.bool "greek omicron" true
    (Unicode.Confusables.confusable "google" "g\xCE\xBF\xCE\xBFgle");
  check Alcotest.bool "identical not confusable" false
    (Unicode.Confusables.confusable "paypal" "paypal");
  check Alcotest.bool "different words" false
    (Unicode.Confusables.confusable "paypal" "amazon");
  check Alcotest.string "fullwidth folds" "abc"
    (Unicode.Confusables.utf8_skeleton "\xEF\xBD\x81\xEF\xBD\x82\xEF\xBD\x83")

(* Exhaustive equivalence of the direct-index flat tables against the
   interval/hashtable reference implementations they were generated
   from — every code point from U+0000 to U+10FFFF, so a table
   regeneration bug cannot hide in an untested range. *)
let test_flat_tables_exhaustive () =
  for cp = 0 to 0x10FFFF do
    if Unicode.Props.mask cp <> Unicode.Props.compute_mask cp then
      Alcotest.failf "Props.mask disagrees with compute_mask at U+%04X" cp;
    (match (Unicode.Blocks.find cp, Unicode.Blocks.find_interval cp) with
    | None, None -> ()
    | Some a, Some b when a = b -> ()
    | _ -> Alcotest.failf "Blocks.find disagrees with find_interval at U+%04X" cp);
    match
      (Unicode.Confusables.lookalike cp, Unicode.Confusables.lookalike_hashed cp)
    with
    | None, None -> ()
    | Some a, Some b when a = b -> ()
    | _ ->
        Alcotest.failf "Confusables.lookalike disagrees with hashed table at U+%04X"
          cp
  done

let prop_skeleton_equiv =
  QCheck.Test.make ~name:"flat skeleton equals hashed skeleton" ~count:500
    scalar_array
    (fun cps ->
      Unicode.Confusables.skeleton cps = Unicode.Confusables.skeleton_hashed cps)

let prop_block_edges =
  QCheck.Test.make ~name:"block edges map to themselves" ~count:200
    QCheck.(int_range 0 (Unicode.Blocks.count - 1))
    (fun i ->
      let b = Unicode.Blocks.all.(i) in
      Unicode.Blocks.find b.Unicode.Blocks.first = Some b
      && Unicode.Blocks.find b.Unicode.Blocks.last = Some b)

let test_escape_helpers () =
  check Alcotest.string "hex escape" "a\\x00b\\xFF"
    (Unicode.Escape.hex_escape_nonprintable "a\x00b\xFF");
  check Alcotest.string "visible strips ZWSP" "shop"
    (Unicode.Escape.visible_utf8 "sh\xE2\x80\x8Bop")

(* --- NFC quick check ---------------------------------------------------- *)

(* [is_nfc] answers from the stable-code-point table when it can; it
   must agree with the definition, [to_nfc cps = cps], everywhere. *)
let nfc_by_definition cps = Unicode.Normalize.to_nfc cps = cps

let test_is_nfc_exhaustive () =
  for cp = 0 to 0x10FFFF do
    if Unicode.Cp.is_scalar cp
       && Unicode.Normalize.is_nfc [| cp |] <> nfc_by_definition [| cp |]
    then Alcotest.failf "is_nfc disagrees on %s" (Unicode.Cp.to_string cp)
  done;
  (* Every ordered pair over the table's repertoire, the Hangul jamo and
     the marks: the pairs are where a composition could reach across a
     code point boundary. *)
  let ranges =
    [ (0x41, 0x7A); (0xB7, 0xB7); (0xC0, 0x17F); (0x1A0, 0x1B0); (0x300, 0x36F);
      (0x386, 0x3CE); (0x400, 0x45F); (0x483, 0x487); (0x1100, 0x1112);
      (0x1161, 0x1175); (0x11A7, 0x11C2); (0x1E00, 0x1EFF); (0x2126, 0x212B);
      (0xAC00, 0xAC1C) ]
  in
  let cps = List.concat_map (fun (a, b) -> List.init (b - a + 1) (( + ) a)) ranges in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Unicode.Normalize.is_nfc [| a; b |] <> nfc_by_definition [| a; b |] then
            Alcotest.failf "is_nfc disagrees on %s %s" (Unicode.Cp.to_string a)
              (Unicode.Cp.to_string b))
        cps)
    cps

let mixed_nfc_array =
  let cp =
    QCheck.Gen.(
      frequency
        [ (4, int_range 0x20 0x7E); (3, int_range 0x300 0x36F);
          (3, int_range 0xC0 0x17F); (2, int_range 0x1E00 0x1EFF);
          (1, int_range 0x1100 0x1112); (1, int_range 0x1161 0x1175);
          (1, int_range 0x11A7 0x11C2); (1, map (fun i -> 0xAC00 + (i * 28)) (int_range 0 398));
          (1, int_range 0x10000 0x1F9FF) ])
  in
  QCheck.make
    ~print:(fun a -> String.concat ";" (List.map Unicode.Cp.to_string (Array.to_list a)))
    QCheck.Gen.(array_size (int_range 0 12) cp)

let prop_is_nfc_definition =
  QCheck.Test.make ~name:"is_nfc = (to_nfc cps = cps)" ~count:5000 mixed_nfc_array
    (fun cps -> Unicode.Normalize.is_nfc cps = nfc_by_definition cps)

let suite =
  [
    Alcotest.test_case "utf8 known vectors" `Quick test_utf8_known;
    Alcotest.test_case "utf8 malformed rejected" `Quick test_utf8_malformed;
    Alcotest.test_case "ascii error policies" `Quick test_ascii_policies;
    Alcotest.test_case "ucs2 and utf16" `Quick test_ucs2_utf16;
    Alcotest.test_case "block lookups" `Quick test_blocks_lookup;
    Alcotest.test_case "block table structure" `Quick test_blocks_structure;
    Alcotest.test_case "character properties" `Quick test_props;
    Alcotest.test_case "printable string charset" `Quick test_printable_string_charset;
    Alcotest.test_case "nfc known pairs" `Quick test_nfc_known;
    Alcotest.test_case "nfc vietnamese" `Quick test_nfc_vietnamese;
    Alcotest.test_case "nfc canonical ordering" `Quick test_nfc_ordering;
    Alcotest.test_case "nfc blocking" `Quick test_nfc_blocked;
    Alcotest.test_case "confusables" `Quick test_confusables;
    Alcotest.test_case "escape helpers" `Quick test_escape_helpers;
    Alcotest.test_case "flat tables exhaustive" `Quick test_flat_tables_exhaustive;
    qtest prop_skeleton_equiv;
    qtest prop_block_edges;
    qtest prop_utf8_roundtrip;
    qtest prop_latin1_roundtrip;
    qtest prop_utf16_roundtrip;
    qtest prop_block_find;
    qtest prop_nfc_idempotent;
    qtest prop_nfd_nfc_stable;
    Alcotest.test_case "is_nfc agrees with to_nfc everywhere" `Quick
      test_is_nfc_exhaustive;
    qtest prop_is_nfc_definition;
  ]
