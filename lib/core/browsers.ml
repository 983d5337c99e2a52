type t = {
  name : string;
  c0_indicator : [ `Raw | `Picture | `Url_encode ];
  warning_identity : [ `San_dns | `Subject_fields | `None ];
  checks_asn1_ranges : bool;
}

let firefox =
  {
    name = "Firefox";
    c0_indicator = `Raw;
    warning_identity = `San_dns;
    checks_asn1_ranges = false;
  }

let safari =
  {
    name = "Safari";
    c0_indicator = `Picture;
    warning_identity = `None;
    checks_asn1_ranges = false;
  }

let chromium =
  {
    name = "Chromium-based";
    c0_indicator = `Url_encode;
    warning_identity = `Subject_fields;
    checks_asn1_ranges = true;
  }

let all = [ firefox; safari; chromium ]

(* Visual bidi model: an RLO (U+202E) override renders the following
   segment reversed until PDF (U+202C); both controls are invisible. *)
let apply_bidi cps =
  (* [out] accumulates display order reversed; [rtl] accumulates the
     override segment, which by construction is already the reversed
     (display) order. *)
  let out = ref [] in
  let rtl = ref [] in
  let in_override = ref false in
  let flush () =
    out := List.rev_append !rtl !out;
    rtl := []
  in
  Array.iter
    (fun cp ->
      if cp = 0x202E then in_override := true
      else if cp = 0x202C then begin
        in_override := false;
        flush ()
      end
      else if !in_override then rtl := cp :: !rtl
      else out := cp :: !out)
    cps;
  flush ();
  Array.of_list (List.rev !out)

let render_field b text =
  let cps = Unicode.Codec.cps_of_utf8 text in
  (* Layout controls other than bidi overrides vanish; bidi overrides
     reorder. *)
  let cps = apply_bidi cps in
  let visible =
    Array.to_list cps
    |> List.concat_map (fun cp ->
           if Unicode.Props.is_layout_control cp then []
           else if Unicode.Props.is_c0_control cp || Unicode.Props.is_del cp then
             match b.c0_indicator with
             | `Raw -> [ cp ]
             | `Picture -> [ (if cp = 0x7F then 0x2421 else 0x2400 + cp) ]
             | `Url_encode ->
                 let hex = Printf.sprintf "%%%02X" cp in
                 List.init 3 (fun i -> Char.code hex.[i])
           else if Unicode.Props.is_nonascii_whitespace cp then [ cp ]
           else [ cp ])
  in
  Unicode.Codec.utf8_of_cps (Array.of_list visible)

let warning_identity_string b cert =
  match b.warning_identity with
  | `None -> ""
  | `San_dns -> (
      match X509.Certificate.san_dns_names cert with
      | d :: _ -> render_field b d
      | [] -> (
          match X509.Certificate.subject_cn cert with
          | Some cn -> render_field b cn
          | None -> ""))
  | `Subject_fields -> (
      match X509.Certificate.subject_cn cert with
      | Some cn -> render_field b cn
      | None -> "")

(* Script buckets for the display policy's mixed-script detection. *)
let script_of cp =
  if cp < 0x80 then `Latin
  else if (cp >= 0xC0 && cp <= 0x24F) || (cp >= 0x1E00 && cp <= 0x1EFF) then `Latin
  else if cp >= 0x370 && cp <= 0x3FF then `Greek
  else if cp >= 0x400 && cp <= 0x52F then `Cyrillic
  else if cp >= 0x4E00 && cp <= 0x9FFF then `Han
  else if cp >= 0x3040 && cp <= 0x30FF then `Kana
  else if cp >= 0xAC00 && cp <= 0xD7AF then `Hangul
  else `Other

let mixed_script cps =
  let scripts =
    Array.to_list cps
    |> List.filter (fun cp -> Unicode.Props.is_ascii_letter cp || cp > 0x80)
    |> List.map script_of
    |> List.sort_uniq Stdlib.compare
  in
  (* Han+Kana (Japanese) and Han+Hangul (Korean) are conventional
     combinations; anything else with two scripts is suspicious. *)
  match scripts with
  | [] | [ _ ] -> false
  | [ `Han; `Kana ] | [ `Han; `Hangul ] -> false
  | _ -> true

let display_hostname b domain =
  ignore b;
  Idna.Dns.split_labels domain
  |> List.map (fun label ->
         if not (Idna.Dns.is_a_label_candidate label) then label
         else
           match Idna.label_to_unicode label with
           | Error _ -> label
           | Ok text ->
               let cps = Unicode.Codec.cps_of_utf8 text in
               if Idna.alabel_issues label <> [] || mixed_script cps then label
               else text)
  |> String.concat "."

type row = {
  browser : string;
  c0_c1_visible : bool;
  layout_visible : bool;
  homograph_feasible : bool;
  incorrect_substitution : bool;
  flawed_range_check : bool;
  warning_spoofable : bool;
}

(* The bidi-override payload of Figure 7. *)
let rlo_payload = "www.\xE2\x80\xAElapyap\xE2\x80\xAC.com"
let rlo_displayed = "www.paypal.com"

let probe b =
  let c0_c1_visible =
    let rendered = render_field b "A\x01B" in
    not (String.equal rendered "A\x01B")
  in
  let layout_visible =
    (* zero-width space must leave a visible trace to count *)
    let rendered = render_field b "sh\xE2\x80\x8Bop" in
    not (String.equal (Unicode.Escape.visible_utf8 rendered) "shop")
    && not (String.equal rendered "shop")
  in
  let homograph_feasible =
    (* a Cyrillic homograph renders indistinguishably from Latin *)
    let latin = render_field b "paypal" in
    let cyr = render_field b "p\xD0\xB0ypal" in
    Unicode.Confusables.confusable latin cyr
  in
  let incorrect_substitution =
    (* Greek question mark becomes a semicolon in rendering pipelines
       that apply canonical equivalence. *)
    match Unicode.Confusables.equivalent_substitution 0x037E with
    | Some 0x003B -> true
    | _ -> false
  in
  let warning_spoofable =
    match b.warning_identity with
    | `None -> false
    | `San_dns | `Subject_fields ->
        String.equal (render_field b rlo_payload) rlo_displayed
  in
  {
    browser = b.name;
    c0_c1_visible;
    layout_visible;
    homograph_feasible;
    incorrect_substitution;
    flawed_range_check = not b.checks_asn1_ranges;
    warning_spoofable;
  }

let table14 () = List.map probe all

type spoof = { browser : string; crafted : string; displayed : string; spoofed : bool }

let issuer_key = X509.Certificate.mock_keypair ~seed:"browser-demo-ca" ()

let warning_spoof_demo () =
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "Untrusted CA") ])
      ~subject:(X509.Dn.of_list [ (X509.Attr.Common_name, rlo_payload) ])
      ~not_before:(Asn1.Time.make 2025 1 1) ~not_after:(Asn1.Time.make 2025 4 1)
      ~spki:(X509.Certificate.keypair_spki issuer_key)
      ~sig_alg:X509.Certificate.Oids.mock_signature
      ~extensions:
        [ X509.Extension.subject_alt_name [ X509.General_name.Dns_name rlo_payload ] ]
      ()
  in
  let cert = X509.Certificate.sign issuer_key tbs in
  List.map
    (fun b ->
      let displayed = warning_identity_string b cert in
      {
        browser = b.name;
        crafted = rlo_payload;
        displayed;
        spoofed = String.equal displayed rlo_displayed;
      })
    all

let render ppf =
  Format.fprintf ppf "== Table 14: certificate visualization and spoofing ==@.";
  Format.fprintf ppf "%-16s | %-8s | %-9s | %-9s | %-10s | %-10s | %-9s@." "Browser"
    "C0vis" "LayoutVis" "Homograph" "BadSubst" "RangeFlaw" "Spoofable";
  List.iter
    (fun (r : row) ->
      let b v = if v then "yes" else "no" in
      Format.fprintf ppf "%-16s | %-8s | %-9s | %-9s | %-10s | %-10s | %-9s@."
        r.browser (b r.c0_c1_visible) (b r.layout_visible) (b r.homograph_feasible)
        (b r.incorrect_substitution) (b r.flawed_range_check) (b r.warning_spoofable))
    (table14 ());
  Format.fprintf ppf "@.== Warning-page spoofing demo (Figure 7) ==@.";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-16s crafted %S -> displays %S (%s)@." s.browser s.crafted
        s.displayed
        (if s.spoofed then "SPOOFED" else "not spoofed"))
    (warning_spoof_demo ())
