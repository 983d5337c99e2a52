type strategy =
  | Case_conversion
  | Abbreviation_variation
  | Nonprintable_addition
  | Whitespace_substitution
  | Resembling_substitution
  | Illegal_replacement

let strategies =
  [ Case_conversion; Abbreviation_variation; Nonprintable_addition;
    Whitespace_substitution; Resembling_substitution; Illegal_replacement ]

let strategy_name = function
  | Case_conversion -> "Character case conversion"
  | Abbreviation_variation -> "Abbreviation variations"
  | Nonprintable_addition -> "Addition of non-printable characters"
  | Whitespace_substitution -> "Use of different whitespace characters"
  | Resembling_substitution -> "Substitution of resembling characters"
  | Illegal_replacement -> "Replacement of illegal characters"

(* Table 3 variant pairs. *)
let examples = function
  | Case_conversion ->
      [ ("Samco Autotechnik GmbH", "SAMCO Autotechnik GmbH");
        ("NOWOCZESNASTODO\xC5\x81A.PL SP. Z O.O.",
         "nowoczesnaSTODO\xC5\x81A.pl sp. z o.o.") ]
  | Abbreviation_variation ->
      [ ("SKAT ELEKTRONIKS, OOO", "SKAT Elektroniks Ltd.");
        ("RWE Energie, s.r.o.", "RWE Energie, a.s.") ]
  | Nonprintable_addition ->
      [ ("Peddy Shield", "PEDDY\xC2\xA0SHIELD\xC2\xA0") ]
  | Whitespace_substitution ->
      [ ("\xE6\xA0\xAA\xE5\xBC\x8F\xE4\xBC\x9A\xE7\xA4\xBE \xE4\xB8\xAD\xE5\x9B\xBD\xE9\x8A\x80\xE8\xA1\x8C",
         "\xE6\xA0\xAA\xE5\xBC\x8F\xE4\xBC\x9A\xE7\xA4\xBE\xE3\x80\x80\xE4\xB8\xAD\xE5\x9B\xBD\xE9\x8A\x80\xE8\xA1\x8C");
        ("EDP -\x2D Energias de Portugal, S.A",
         "EDP -\xE2\x80\x93 Energias de Portugal, SA") ]
  | Resembling_substitution ->
      [ ("Vegas.XXX\xC2\xAE\xE2\x84\xA2 (VegasLLC)", "Vegas.XXX\xE2\x84\xA2\xC2\xAE (VegasLLC)");
        ("crossmedia:team GmbH", "crossmedia Team GmbH") ]
  | Illegal_replacement ->
      [ ("St\xC3\xB6ri AG", "St\xEF\xBF\xBDri AG") ]

let apply g strategy value =
  let cps = Unicode.Codec.cps_of_utf8 value in
  match strategy with
  | Case_conversion ->
      let flip cp =
        if Unicode.Props.is_ascii_lower cp then cp - 32
        else if Unicode.Props.is_ascii_upper cp && Ucrypto.Prng.bool g then cp + 32
        else cp
      in
      Unicode.Codec.utf8_of_cps (Array.map flip cps)
  | Abbreviation_variation ->
      let suffixes =
        [ (", s.r.o.", ", a.s."); (" GmbH", " AG"); (" Ltd.", ", OOO");
          (" Inc", " LLC"); (", S.A", ", SA") ]
      in
      let applied =
        List.find_map
          (fun (old_sfx, new_sfx) ->
            let n = String.length value and m = String.length old_sfx in
            if n >= m && String.sub value (n - m) m = old_sfx then
              Some (String.sub value 0 (n - m) ^ new_sfx)
            else None)
          suffixes
      in
      (match applied with Some v -> v | None -> value ^ " Ltd.")
  | Nonprintable_addition ->
      value ^ Ucrypto.Prng.pick g [| "\xC2\xA0"; "\xE2\x80\x8B"; "\xC2\xAD" |]
  | Whitespace_substitution -> (
      match String.index_opt value ' ' with
      | Some i ->
          String.sub value 0 i
          ^ Ucrypto.Prng.pick g [| "\xC2\xA0"; "\xE3\x80\x80"; "\xE2\x80\x89" |]
          ^ String.sub value (i + 1) (String.length value - i - 1)
      | None -> value ^ "\xC2\xA0")
  | Resembling_substitution ->
      let swap cp =
        match cp with
        | 0x6F (* o *) -> 0x3BF (* Greek omicron *)
        | 0x61 (* a *) -> 0x430 (* Cyrillic a *)
        | 0x65 (* e *) -> 0x435 (* Cyrillic e *)
        | 0x2D -> 0x2013 (* en dash *)
        | cp -> cp
      in
      let swapped = ref false in
      Unicode.Codec.utf8_of_cps
        (Array.map
           (fun cp ->
             if (not !swapped) && swap cp <> cp && Ucrypto.Prng.bool g then begin
               swapped := true;
               swap cp
             end
             else cp)
           cps)
  | Illegal_replacement ->
      if Array.exists (fun cp -> cp > 0x7F) cps then
        Unicode.Codec.utf8_of_cps
          (Array.map (fun cp -> if cp > 0x7F then 0xFFFD else cp) cps)
      else begin
        (* Pure-ASCII input: model the lossy Teletex round trip by
           knocking out one letter. *)
        let letters =
          Array.to_list cps
          |> List.mapi (fun i cp -> (i, cp))
          |> List.filter (fun (_, cp) -> Unicode.Props.is_ascii_letter cp)
        in
        match letters with
        | [] -> value ^ "\xEF\xBF\xBD"
        | _ ->
            let i, _ = List.nth letters (Ucrypto.Prng.int g (List.length letters)) in
            let out = Array.copy cps in
            out.(i) <- 0xFFFD;
            Unicode.Codec.utf8_of_cps out
      end

(* Canonical comparison key: diacritics folded (canonical decomposition
   with combining marks dropped), skeletonized, case-folded, decoration
   symbols dropped, colon treated as a word break, whitespace collapsed
   and trimmed.  U+FFFD survives as a one-character wildcard. *)
let variant_key value =
  let decomposed = Unicode.Normalize.decompose (Unicode.Codec.cps_of_utf8 value) in
  let base =
    Array.of_list
      (List.filter
         (fun cp -> Unicode.Normalize.combining_class cp = 0)
         (Array.to_list decomposed))
  in
  let skel = Unicode.Confusables.skeleton base in
  let out = ref [] and prev_space = ref true in
  Array.iter
    (fun cp ->
      let cp = if cp = Char.code ':' then 0x20 else cp in
      if Unicode.Props.is_whitespace cp then begin
        if not !prev_space then begin
          out := 0x20 :: !out;
          prev_space := true
        end
      end
      else if cp = 0xAE || cp = 0x2122 || cp = 0xA9 then () (* (R) / TM / (C) *)
      else begin
        out := Unicode.Props.ascii_lowercase cp :: !out;
        prev_space := false
      end)
    skel;
  let trimmed = match !out with 0x20 :: rest -> rest | l -> l in
  Unicode.Codec.utf8_of_cps (Array.of_list (List.rev trimmed))

(* Equality where U+FFFD (a replaced character) matches exactly one code
   point on the other side. *)
let wildcard_equal a b =
  let a = Unicode.Codec.cps_of_utf8 a and b = Unicode.Codec.cps_of_utf8 b in
  let na = Array.length a and nb = Array.length b in
  if na <> nb then false
  else begin
    let rec go i =
      i >= na
      || ((a.(i) = b.(i) || a.(i) = 0xFFFD || b.(i) = 0xFFFD) && go (i + 1))
    in
    go 0
  end

let legal_suffixes =
  [ "ltd."; "ltd"; "llc"; "gmbh"; "ag"; "s.r.o."; "a.s."; "ooo"; "inc"; "inc.";
    "s.a"; "sa"; "sp. z o.o." ]

let strip_legal_suffix key =
  let key = String.trim key in
  let matched =
    List.find_opt
      (fun sfx ->
        let n = String.length key and m = String.length sfx in
        n > m && String.sub key (n - m) m = sfx)
      legal_suffixes
  in
  match matched with
  | Some sfx -> String.trim (String.sub key 0 (String.length key - String.length sfx))
  | None -> key

let is_variant_pair a b =
  a <> b
  &&
  let depunct k = String.concat "" (String.split_on_char ',' k) in
  let ka = strip_legal_suffix (variant_key a) and kb = strip_legal_suffix (variant_key b) in
  wildcard_equal ka kb || wildcard_equal (depunct ka) (depunct kb)

type evasion = {
  engine : string;
  strategy : strategy;
  evaded : bool;
}

let issuer_key = X509.Certificate.mock_keypair ~seed:"obfuscation-ca" ()

let cert_with_org org =
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "Obfuscation CA") ])
      ~subject:
        (X509.Dn.of_list
           [ (X509.Attr.Organization_name, org);
             (X509.Attr.Common_name, "service.evil-entity.test") ])
      ~not_before:(Asn1.Time.make 2025 1 1) ~not_after:(Asn1.Time.make 2025 4 1)
      ~spki:(X509.Certificate.keypair_spki issuer_key)
      ~sig_alg:X509.Certificate.Oids.mock_signature
      ~extensions:
        [ X509.Extension.subject_alt_name
            [ X509.General_name.Dns_name "service.evil-entity.test" ] ]
      ()
  in
  X509.Certificate.sign issuer_key tbs

let evasion_matrix ?(seed = 7) () =
  let g = Ucrypto.Prng.create seed in
  let original = "Evil Entity Corp" in
  List.concat_map
    (fun strategy ->
      let variant = apply g strategy original in
      let cert = cert_with_org variant in
      List.map
        (fun engine ->
          let rule = { Engine.field = `Org; pattern = original } in
          {
            engine = engine.Engine.name;
            strategy;
            evaded = not (Engine.matches engine rule cert);
          })
        Engine.all)
    strategies

let render ppf =
  Format.fprintf ppf "== Table 3: value variant strategies in Subject fields ==@.";
  List.iter
    (fun s ->
      Format.fprintf ppf "%s:@." (strategy_name s);
      List.iter
        (fun (a, b) ->
          Format.fprintf ppf "    %-45s | %s  (detected as variants: %b)@." a b
            (is_variant_pair a b))
        (examples s))
    strategies;
  Format.fprintf ppf "@.== Traffic obfuscation: rule evasion matrix ==@.";
  Format.fprintf ppf "%-40s | %-9s | %-9s | %-9s@." "Strategy" "Snort" "Suricata" "Zeek";
  let by_strategy = evasion_matrix () in
  List.iter
    (fun s ->
      let row e =
        match
          List.find_opt (fun r -> r.strategy = s && r.engine = e) by_strategy
        with
        | Some r -> if r.evaded then "evaded" else "caught"
        | None -> "-"
      in
      Format.fprintf ppf "%-40s | %-9s | %-9s | %-9s@." (strategy_name s) (row "Snort")
        (row "Suricata") (row "Zeek"))
    strategies
