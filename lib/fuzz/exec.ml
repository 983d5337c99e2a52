(* Differential evaluation of one candidate certificate.

   The coverage signal of the campaign is the outcome signature this
   module computes: our own x509 parser under strict and lenient DER
   configs, plus all nine [Tlsparsers] models probed through the
   harness fault boundary on the candidate's subject CN and first SAN
   dNSName.  Model outputs are partition-labeled (models that decode to
   the same application-visible string share a letter), so the
   signature captures the *shape* of disagreement, not the payload —
   shrinking a reproducer keeps its signature as long as the
   disagreement shape survives.

   Every evaluation probes through a private [Harness.Scope], so the
   signature is a pure function of the DER bytes: shard boundaries and
   evaluation order cannot leak breaker state between candidates, which
   is what makes findings byte-identical across [--jobs]. *)

type eval = {
  strict_ok : bool;
  lenient_ok : bool;
  cn : (Asn1.Str_type.t * string) option;
  san : string option;
  cn_tokens : string;
  san_tokens : string;
  nul : bool;
  ctl : bool;
  conf : bool;
  idna : string;
  crashes : (string * int) list;
  signature : string;
  cls : string;
}

let model_names =
  List.map (fun m -> m.Tlsparsers.Model.name) Tlsparsers.Models.all

let issue_name = function
  | Idna.Malformed_punycode _ -> "malformed_punycode"
  | Idna.Unpermitted_char _ -> "unpermitted_char"
  | Idna.Not_nfc -> "not_nfc"
  | Idna.Leading_combining_mark -> "leading_combining_mark"
  | Idna.Bad_hyphen34 -> "bad_hyphen34"
  | Idna.Leading_hyphen -> "leading_hyphen"
  | Idna.Trailing_hyphen -> "trailing_hyphen"
  | Idna.Bidi_violation -> "bidi_violation"
  | Idna.Empty_label -> "empty_label"
  | Idna.Encoded_label_too_long -> "encoded_label_too_long"
  | Idna.Non_canonical_alabel -> "non_canonical_alabel"

(* Partition labels over the fixed model order: first distinct decoded
   output is 'a', the next 'b', ...; 'R' rejected, 'C' crashed,
   '-' field unsupported, 'X' not probed (no payload in the context). *)
let tokens_of probes =
  let decoded = ref [] in
  let buf = Buffer.create 9 in
  List.iter
    (fun outcome ->
      Buffer.add_char buf
        (match outcome with
        | `Unsupported -> '-'
        | `Unprobed -> 'X'
        | `Outcome (Tlsparsers.Harness.Decoded s) -> (
            match List.assoc_opt s !decoded with
            | Some c -> c
            | None ->
                let c = Char.chr (Char.code 'a' + min 25 (List.length !decoded)) in
                decoded := !decoded @ [ (s, c) ];
                c)
        | `Outcome Tlsparsers.Harness.Rejected -> 'R'
        | `Outcome (Tlsparsers.Harness.Crashed _) -> 'C'))
    probes;
  Buffer.contents buf

let decoded_outputs probes =
  List.filter_map
    (function
      | `Outcome (Tlsparsers.Harness.Decoded s) -> Some s
      | _ -> None)
    probes

let has_label s = String.exists (fun c -> c >= 'a' && c <= 'z') s

let distinct_labels s =
  let seen = ref [] in
  String.iter
    (fun c -> if c >= 'a' && c <= 'z' && not (List.mem c !seen) then seen := c :: !seen)
    s;
  List.length !seen

let contains_ctl s = String.exists (fun c -> c < ' ' && c <> '\x00') s
let contains_nul s = String.contains s '\x00'

(* Only a code point at or above U+0080 can be a confusable, and an
   all-ASCII output decodes to none: it skips the UTF-8 decode. *)
let contains_confusable s =
  String.exists (fun c -> c >= '\x80') s
  && Array.exists
       (fun cp -> cp >= 0x80 && Unicode.Confusables.lookalike cp <> None)
       (Unicode.Codec.cps_of_utf8 s)

(* The content facets are properties of a string, so each distinct
   decoded output is scanned once however many models produced it. *)
let distinct outputs =
  List.fold_left
    (fun acc s -> if List.exists (String.equal s) acc then acc else s :: acc)
    [] outputs

let classify e =
  let any_crash = String.contains e.cn_tokens 'C' || String.contains e.san_tokens 'C' in
  let some_label = has_label e.cn_tokens || has_label e.san_tokens in
  let reject_somewhere tokens = has_label tokens && String.contains tokens 'R' in
  if any_crash then "model-crash"
  else if e.nul && some_label then "nul-transparency"
  else if e.ctl && some_label then "ctl-passthrough"
  else if
    e.idna <> "-" && e.san <> None && has_label e.san_tokens
    && not (String.contains e.san_tokens 'R')
  then "idna-blindspot"
  else if e.conf && some_label then "confusable-passthrough"
  else if (not e.strict_ok) && e.lenient_ok && some_label then "strictness-split"
  else if distinct_labels e.cn_tokens >= 2 || distinct_labels e.san_tokens >= 2 then
    "render-divergence"
  else if reject_somewhere e.cn_tokens || reject_somewhere e.san_tokens then
    "accept-reject-split"
  else "agreement"

(* Classes the fixed Table-4/5 battery does not enumerate as clusters:
   the "beyond the paper" findings the campaign must rediscover. *)
let beyond_tables = function
  | "nul-transparency" | "ctl-passthrough" | "idna-blindspot"
  | "confusable-passthrough" | "strictness-split" ->
      true
  | _ -> false

(* "x509=%c%c|cn=%s:%s|san=%s|idna=%s|nul=%d|ctl=%d|conf=%d", built by
   concatenation: this runs once per execution. *)
let signature_of e =
  let pe ok = if ok then "P" else "E" and bit b = if b then "1" else "0" in
  String.concat ""
    [ "x509="; pe e.strict_ok; pe e.lenient_ok;
      "|cn="; (match e.cn with Some (st, _) -> Asn1.Str_type.name st | None -> "-");
      ":"; e.cn_tokens; "|san="; e.san_tokens; "|idna="; e.idna;
      "|nul="; bit e.nul; "|ctl="; bit e.ctl; "|conf="; bit e.conf ]

let probe scope model field f =
  if not (model.Tlsparsers.Model.supports field) then `Unsupported
  else `Outcome (Tlsparsers.Harness.observe_decode ~scope model f)

let eval ?(threshold = Faults.Breaker.default_threshold) der =
  let scope = Tlsparsers.Harness.Scope.create ~threshold () in
  (* Strict first: the two configs differ only in the non-minimal
     length check, which can add a failure and changes nothing else, so
     a strict [Ok] is the lenient result too.  The lenient parser runs
     only on what strict rejects. *)
  let parsed = X509.Certificate.parse ~config:Asn1.Value.strict der in
  let strict_ok = Result.is_ok parsed in
  let parsed =
    if strict_ok then parsed
    else X509.Certificate.parse ~config:Asn1.Value.lenient der
  in
  let lenient_ok = Result.is_ok parsed in
  let cn, san =
    match parsed with
    | Error _ -> (None, None)
    | Ok cert -> (
        ( Tlsparsers.Testgen.raw_subject_attr cert X509.Attr.Common_name,
          match Tlsparsers.Testgen.raw_san_payloads cert with
          | [] -> None
          | p :: _ -> Some p ))
  in
  let cn_probes =
    List.map
      (fun model ->
        match cn with
        | None -> `Unprobed
        | Some (st, raw) ->
            probe scope model Tlsparsers.Model.Subject_dn (fun () ->
                model.Tlsparsers.Model.decode_name_attr st raw))
      Tlsparsers.Models.all
  in
  let san_probes =
    List.map
      (fun model ->
        match san with
        | None -> `Unprobed
        | Some payload ->
            probe scope model Tlsparsers.Model.San (fun () ->
                model.Tlsparsers.Model.decode_gn Tlsparsers.Model.San payload))
      Tlsparsers.Models.all
  in
  let outputs = distinct (decoded_outputs cn_probes @ decoded_outputs san_probes) in
  let idna =
    match san with
    | None -> "-"
    | Some payload -> (
        match
          List.concat_map (fun (_, issues) -> List.map issue_name issues)
            (Idna.domain_issues payload)
          |> List.sort_uniq compare
        with
        | [] -> "-"
        | names -> String.concat "+" names)
  in
  let cn_tokens = tokens_of cn_probes and san_tokens = tokens_of san_probes in
  (* Every crash, circuit-open or real, shows as a 'C' token. *)
  let crashes =
    if not (String.contains cn_tokens 'C' || String.contains san_tokens 'C') then []
    else
      List.map2
        (fun name (c, s) ->
          let count o = match o with `Outcome (Tlsparsers.Harness.Crashed r) when r <> "circuit_open" -> 1 | _ -> 0 in
          (name, count c + count s))
        model_names
        (List.combine cn_probes san_probes)
      |> List.filter (fun (_, n) -> n > 0)
  in
  let e =
    { strict_ok; lenient_ok; cn; san;
      cn_tokens; san_tokens;
      nul = List.exists contains_nul outputs;
      ctl = List.exists contains_ctl outputs;
      conf = List.exists contains_confusable outputs;
      idna; crashes; signature = ""; cls = "" }
  in
  let e = { e with signature = signature_of e } in
  { e with cls = classify e }

(* Synthetic evaluations for candidates the campaign could not run to
   completion: a watchdog overrun and a harness-level exception. *)
let timeout_eval stage =
  { strict_ok = false; lenient_ok = false; cn = None; san = None;
    cn_tokens = ""; san_tokens = ""; nul = false; ctl = false; conf = false;
    idna = "-"; crashes = []; signature = "timeout|" ^ stage; cls = "timeout" }

let crash_eval exn_name =
  { strict_ok = false; lenient_ok = false; cn = None; san = None;
    cn_tokens = ""; san_tokens = ""; nul = false; ctl = false; conf = false;
    idna = "-"; crashes = []; signature = "harness-crash|" ^ exn_name;
    cls = "harness-crash" }
