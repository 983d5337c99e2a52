type scenario = { declared : Asn1.Str_type.t; context : [ `Name | `Gn ] }

let scenarios =
  [
    { declared = Asn1.Str_type.Printable_string; context = `Name };
    { declared = Asn1.Str_type.Ia5_string; context = `Name };
    { declared = Asn1.Str_type.Bmp_string; context = `Name };
    { declared = Asn1.Str_type.Utf8_string; context = `Name };
    { declared = Asn1.Str_type.Ia5_string; context = `Gn };
  ]

let scenario_name s =
  Printf.sprintf "%s in %s" (Asn1.Str_type.name s.declared)
    (match s.context with `Name -> "Name" | `Gn -> "GN")

type cell = {
  library : string;
  inferred : (Infer.method_ * Infer.handling) option;
  verdicts : Infer.verdict list;
  crashes : (string * int) list;
      (** exception constructor -> probe count, [] when no crash *)
}

(* --- telemetry ------------------------------------------------------ *)

(* Every model decode call in the harness is routed through
   [observe_decode]: per-library accept/reject/error counters plus a
   decode latency histogram.  A model that raises is counted exactly
   once, as an error — never also as a reject — and the exception
   constructor is kept so verdicts can name the crash. *)
let obs_accept =
  lazy
    (Obs.Registry.labeled_counter ~label:"library"
       ~help:"Probe payloads the parser model decoded to some text"
       "unicert_parser_accept_total")

let obs_reject =
  lazy
    (Obs.Registry.labeled_counter ~label:"library"
       ~help:"Probe payloads the parser model rejected"
       "unicert_parser_reject_total")

let obs_error =
  lazy
    (Obs.Registry.labeled_counter ~label:"library"
       ~help:"Probe payloads on which the parser model raised"
       "unicert_parser_error_total")

let obs_latency =
  lazy
    (Obs.Registry.labeled_histogram ~label:"library"
       ~help:"Per-model decode latency" "unicert_parser_decode_seconds")

type decode_outcome = Decoded of string | Rejected | Crashed of string

(* The probe hot path (18 probes per fuzz execution, every Table 4/5
   probe) resolves nothing by name for a model of [Models.all]: the
   model's position in that list indexes its telemetry handles and its
   breaker slot in the scope.  Identity is tried first (every caller
   iterates [Models.all]); a copy of a listed model falls back to its
   name, so it shares that model's counters and breaker exactly as it
   did when both were keyed by name.  [-1] for any other model. *)
let models = Array.of_list Models.all

let slot_of (model : Model.t) =
  let n = Array.length models in
  let rec by_identity i =
    if i = n then by_name 0
    else if models.(i) == model then i
    else by_identity (i + 1)
  and by_name i =
    if i = n then -1
    else if String.equal models.(i).Model.name model.Model.name then i
    else by_name (i + 1)
  in
  by_identity 0

(* One child handle per model of [Models.all] and per family, parallel
   to that list.  Each is resolved on its first use, never ahead of it,
   so the metrics dump lists only families and children a probe
   touched (an error family appears only once a model raised).
   Domains racing on a first use resolve the same child: the labeled
   families are find-or-create under their own lock. *)
let per_model family get =
  let cells = Array.map (fun _ -> Atomic.make None) models in
  fun i ->
    match Atomic.get cells.(i) with
    | Some c -> c
    | None ->
        let c = get (Lazy.force family) models.(i).Model.name in
        Atomic.set cells.(i) (Some c);
        c

let accept_at = per_model obs_accept Obs.Counter.Labeled.get
let reject_at = per_model obs_reject Obs.Counter.Labeled.get
let error_at = per_model obs_error Obs.Counter.Labeled.get
let latency_at = per_model obs_latency Obs.Histogram.Labeled.get

(* Per-model circuit breakers live in a [Scope]: a model that keeps
   raising gets disabled for the rest of the scope's lifetime and
   reported degraded instead of crashing every remaining probe.  The
   process-wide default scope backs [decoding_matrix] and friends; a
   fuzzing campaign creates its own scope so a breaker it opens cannot
   poison a later in-process harness pass.  The breakers of
   [Models.all] sit in [slots], created together on a scope's first
   probe and read lock-free afterwards; any other model gets a
   find-or-create entry in [breakers].  Creation and every table
   access hold [lock], since scopes are shared across domains (the
   breakers themselves are atomic). *)
module Scope = struct
  type t = {
    lock : Mutex.t;
    slots : Faults.Breaker.t array option Atomic.t;
    breakers : (string, Faults.Breaker.t) Hashtbl.t;
    mutable threshold : int;
  }

  let create ?(threshold = Faults.Breaker.default_threshold) () =
    { lock = Mutex.create (); slots = Atomic.make None;
      breakers = Hashtbl.create 1; threshold }

  let default = create ()

  let slots t =
    match Atomic.get t.slots with
    | Some a -> a
    | None ->
        Mutex.protect t.lock (fun () ->
            match Atomic.get t.slots with
            | Some a -> a
            | None ->
                let a =
                  Array.map
                    (fun (m : Model.t) ->
                      Faults.Breaker.create ~threshold:t.threshold m.Model.name)
                    models
                in
                Atomic.set t.slots (Some a);
                a)

  let breaker_for t name =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.breakers name with
        | Some b -> b
        | None ->
            let b = Faults.Breaker.create ~threshold:t.threshold name in
            Hashtbl.add t.breakers name b;
            b)

  (* Every breaker of the scope; the caller holds [lock]. *)
  let iter_locked t f =
    Option.iter (Array.iter f) (Atomic.get t.slots);
    Hashtbl.iter (fun _ b -> f b) t.breakers

  let degraded t =
    Mutex.protect t.lock (fun () ->
        let acc = ref [] in
        iter_locked t (fun b ->
            if Faults.Breaker.tripped b then
              acc := (Faults.Breaker.name b, Faults.Breaker.crashes b) :: !acc);
        !acc)
    |> List.sort compare

  let set_threshold t n =
    Mutex.protect t.lock (fun () ->
        t.threshold <- n;
        iter_locked t (fun b -> Faults.Breaker.set_threshold b n))

  let reset t = Mutex.protect t.lock (fun () -> iter_locked t Faults.Breaker.reset)
end

let degraded_models () = Scope.degraded Scope.default
let set_breaker_threshold n = Scope.set_threshold Scope.default n
let reset_faults () = Scope.reset Scope.default

(* Injection campaigns address models as "model:<name>", keeping the
   target namespace disjoint from lint names. *)
let injector_target name = "model:" ^ name

let observe_decode ?(scope = Scope.default) (model : Model.t) f =
  let i = slot_of model in
  let b =
    if i >= 0 then (Scope.slots scope).(i) else Scope.breaker_for scope model.Model.name
  in
  if Faults.Breaker.tripped b then Crashed "circuit_open"
  else begin
    let handle at family get =
      if i >= 0 then at i else get (Lazy.force family) model.Model.name
    in
    let bump at family = Obs.Counter.inc (handle at family Obs.Counter.Labeled.get) in
    let t0 = Unix.gettimeofday () in
    let result =
      try
        if Faults.Injector.active () then
          Faults.Injector.tick (injector_target model.Model.name);
        (* Sampled like the per-lint spans: 9 models per harness pass
           add up fast at corpus scale. *)
        Ok (Obs.Trace.sampled_span ~cat:"model" model.Model.name f)
      with e when Faults.Isolation.enabled () -> Error e
    in
    Obs.Histogram.observe
      (handle latency_at obs_latency Obs.Histogram.Labeled.get)
      (Unix.gettimeofday () -. t0);
    match result with
    | Ok (Some s) ->
        bump accept_at obs_accept;
        Faults.Breaker.success b;
        Decoded s
    | Ok None ->
        bump reject_at obs_reject;
        Faults.Breaker.success b;
        Rejected
    | Error e ->
        bump error_at obs_error;
        Faults.Breaker.failure b;
        let exn_name = Faults.Error.exn_name e in
        Faults.Error.observe
          (Faults.Error.Model_crash
             { model = model.Model.name; exn_name; detail = Printexc.to_string e });
        Crashed exn_name
  end

let output_of_outcome = function Decoded s -> Some s | Rejected | Crashed _ -> None

(* Round each probe through a real certificate so the full encode/parse
   path is exercised, then hand the extracted raw bytes to the model —
   the moral equivalent of calling the library's parsing API on the
   test Unicert. *)
let probe_outcomes (model : Model.t) scenario =
  List.filter_map
    (fun payload ->
      match scenario.context with
      | `Name ->
          let cert =
            Testgen.make
              (Testgen.Subject_attr
                 (X509.Attr.Organization_name, scenario.declared, payload))
          in
          (match Testgen.raw_subject_attr cert X509.Attr.Organization_name with
          | Some (st, raw) ->
              Some
                ( raw,
                  observe_decode model (fun () ->
                      model.Model.decode_name_attr st raw) )
          | None -> None)
      | `Gn ->
          let cert = Testgen.make (Testgen.San_dns payload) in
          (match Testgen.raw_san_payloads cert with
          | raw :: _ ->
              Some
                ( raw,
                  observe_decode model (fun () ->
                      model.Model.decode_gn Model.San raw) )
          | [] -> None))
    Testgen.byte_battery

let crash_tally outcomes =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (_, o) ->
      match o with
      | Crashed e ->
          Hashtbl.replace tbl e (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e))
      | Decoded _ | Rejected -> ())
    outcomes;
  Hashtbl.fold (fun e n acc -> (e, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let decoding_matrix () =
  List.map
    (fun scenario ->
      let cells =
        List.map
          (fun (model : Model.t) ->
            let supported =
              match scenario.context with
              | `Name -> model.Model.supports Model.Subject_dn
              | `Gn -> model.Model.supports Model.San
            in
            if not supported then
              { library = model.Model.name; inferred = None;
                verdicts = [ Infer.Unsupported ]; crashes = [] }
            else begin
              let outcomes = probe_outcomes model scenario in
              (* Crashes are excluded from inference (§3.2: complete
                 parsing failures are analyzed separately); they count
                 once as error above and surface as a Crashing
                 verdict naming the exception constructor. *)
              let obs =
                List.filter_map
                  (fun (raw, o) ->
                    match o with
                    | Decoded s -> Some { Infer.raw; output = Some s }
                    | Rejected -> Some { Infer.raw; output = None }
                    | Crashed _ -> None)
                  outcomes
              in
              let crashes = crash_tally outcomes in
              let all_none = List.for_all (fun o -> o.Infer.output = None) obs in
              let inferred = Infer.infer obs in
              let verdicts =
                match crashes with
                | [] -> Infer.classify ~declared:scenario.declared inferred ~all_none
                | (top, _) :: _ ->
                    if obs = [] then [ Infer.Crashing top ]
                    else
                      Infer.classify ~declared:scenario.declared inferred ~all_none
                      @ [ Infer.Crashing top ]
              in
              { library = model.Model.name; inferred; verdicts; crashes }
            end)
          Models.all
      in
      (scenario, cells))
    scenarios

(* ------------------------------------------------------------------ *)
(* Table 5 upper half: illegal-character tolerance.                    *)

type tolerance = Enforced | Tolerated | Not_tested

let tolerance_symbol = function
  | Enforced -> "o"
  | Tolerated -> "(.)"
  | Not_tested -> "-"

(* A value is "tolerated" when the parser returns text containing code
   points outside the declared repertoire — U+FFFD replacements and
   ASCII escape expansions count as handling the problem. *)
let classify_tolerance declared outputs =
  let some_outputs = List.filter_map Fun.id outputs in
  if some_outputs = [] then Enforced
  else begin
    let offending text =
      let cps = Unicode.Codec.cps_of_utf8 text in
      Array.exists
        (fun cp -> cp <> 0xFFFD && not (Asn1.Str_type.allows declared cp))
        cps
    in
    if List.exists offending some_outputs then Tolerated else Enforced
  end

let illegal_payloads declared =
  match declared with
  | Asn1.Str_type.Printable_string ->
      [ "caf\xC3\xA9" (* UTF-8 e-acute *); "caf\xE9" (* Latin-1 e-acute *) ]
  | Asn1.Str_type.Ia5_string -> [ "caf\xC3\xA9"; "caf\xE9"; "hi\xFF" ]
  | Asn1.Str_type.Bmp_string ->
      [ "\xD8\x00\x00a" (* lone surrogate unit *); "\xD8\x3D\xDE\x00" (* pair *) ]
  | _ -> [ "caf\xC3\xA9" ]

let illegal_char_rows () =
  let dn_row declared label =
    ( label,
      List.map
        (fun (model : Model.t) ->
          if not (model.Model.supports Model.Subject_dn) then
            (model.Model.name, Not_tested)
          else begin
            let outputs =
              List.map
                (fun payload ->
                  let cert =
                    Testgen.make
                      (Testgen.Subject_attr
                         (X509.Attr.Organization_name, declared, payload))
                  in
                  match Testgen.raw_subject_attr cert X509.Attr.Organization_name with
                  | Some (st, raw) ->
                      output_of_outcome
                        (observe_decode model (fun () ->
                             model.Model.decode_name_attr st raw))
                  | None -> None)
                (illegal_payloads declared)
            in
            (model.Model.name, classify_tolerance declared outputs)
          end)
        Models.all )
  in
  let gn_row =
    ( "IA5String in GN",
      List.map
        (fun (model : Model.t) ->
          if not (model.Model.supports Model.San) then (model.Model.name, Not_tested)
          else begin
            let outputs =
              List.map
                (fun payload ->
                  let cert = Testgen.make (Testgen.San_dns payload) in
                  match Testgen.raw_san_payloads cert with
                  | raw :: _ ->
                      output_of_outcome
                        (observe_decode model (fun () ->
                             model.Model.decode_gn Model.San raw))
                  | [] -> None)
                (illegal_payloads Asn1.Str_type.Ia5_string)
            in
            (model.Model.name, classify_tolerance Asn1.Str_type.Ia5_string outputs)
          end)
        Models.all )
  in
  [
    dn_row Asn1.Str_type.Printable_string "PrintableString in DN";
    dn_row Asn1.Str_type.Ia5_string "IA5String in DN";
    dn_row Asn1.Str_type.Bmp_string "BMPString in DN";
    gn_row;
  ]

(* ------------------------------------------------------------------ *)
(* Table 5 lower half: escaping conformance and exploitability.        *)

type escaping_verdict = Esc_ok | Esc_violation | Esc_exploited | Esc_na

let escaping_symbol = function
  | Esc_ok -> "o"
  | Esc_violation -> "(.)"
  | Esc_exploited -> "X"
  | Esc_na -> "-"

(* Values whose escaping the DN string formats must protect. *)
let dn_probe_values =
  [ "a,b"; "a+b"; "#leading"; " leading-space"; "trailing-space "; "quo\"te";
    "back\\slash" ]

let dn_injection_values = [ "x,CN=evil.com"; "x/CN=evil.com"; "x, CN=evil.com" ]

(* Count components the way a naive string-based analyzer would: split
   on '/' for oneline output, on newlines for line-per-attribute output,
   or on unescaped ',' otherwise. *)
let naive_components rendered =
  if String.contains rendered '\n' then String.split_on_char '\n' rendered
  else if String.length rendered > 0 && rendered.[0] = '/' then
    String.split_on_char '/' rendered |> List.filter (fun s -> s <> "")
  else begin
    let out = ref [] and buf = Buffer.create 32 in
    let escaped = ref false in
    String.iter
      (fun c ->
        if !escaped then begin
          Buffer.add_char buf c;
          escaped := false
        end
        else if c = '\\' then escaped := true
        else if c = ',' then begin
          out := Buffer.contents buf :: !out;
          Buffer.clear buf
        end
        else Buffer.add_char buf c)
      rendered;
    out := Buffer.contents buf :: !out;
    List.rev !out
  end

let injection_succeeds (model : Model.t) =
  List.exists
    (fun v ->
      let cert =
        Testgen.make
          (Testgen.Subject_attr
             (X509.Attr.Organization_name, Asn1.Str_type.Utf8_string, v))
      in
      match model.Model.dn_to_string cert.X509.Certificate.tbs.X509.Certificate.subject with
      | None -> false
      | Some rendered ->
          List.exists
            (fun comp ->
              let comp = String.trim comp in
              String.length comp >= 3 && String.sub comp 0 3 = "CN="
              && String.length comp >= 10
              && String.sub comp 0 10 = "CN=evil.co")
            (naive_components rendered))
    dn_injection_values

let dn_escaping_verdict (model : Model.t) flavor =
  match model.Model.dn_to_string X509.Dn.empty with
  | None -> Esc_na
  | Some _ ->
      let claimed =
        List.mem
          (match flavor with
          | X509.Dn.Rfc1779 -> `Rfc1779
          | X509.Dn.Rfc2253 -> `Rfc2253
          | X509.Dn.Rfc4514 -> `Rfc4514)
          model.Model.escaping_claim
      in
      if not claimed then Esc_na
      else if injection_succeeds model then Esc_exploited
      else begin
        let deviates =
          List.exists
            (fun v ->
              let cert =
                Testgen.make
                  (Testgen.Subject_attr
                     (X509.Attr.Organization_name, Asn1.Str_type.Utf8_string, v))
              in
              match
                model.Model.dn_to_string
                  cert.X509.Certificate.tbs.X509.Certificate.subject
              with
              | None -> false
              | Some rendered ->
                  let reference = X509.Dn.escape_value flavor v in
                  (* The correctly escaped value must appear verbatim. *)
                  let contains hay needle =
                    let hn = String.length hay and nn = String.length needle in
                    let rec go i =
                      i + nn <= hn && (String.sub hay i nn = needle || go (i + 1))
                    in
                    nn = 0 || go 0
                  in
                  not (contains rendered reference))
            dn_probe_values
        in
        if deviates then Esc_violation else Esc_ok
      end

let gn_injection_value = "a.com, DNS:b.com"

let gn_escaping_verdict (model : Model.t) =
  let cert = Testgen.make (Testgen.San_dns gn_injection_value) in
  match
    X509.Extension.find cert.X509.Certificate.tbs.X509.Certificate.extensions
      X509.Extension.Oids.subject_alt_name
  with
  | None -> Esc_na
  | Some e -> (
      match X509.Extension.parse_general_names e.X509.Extension.value with
      | Error _ -> Esc_na
      | Ok gns -> (
          match model.Model.gns_to_string gns with
          | None -> Esc_na
          | Some rendered ->
              let components =
                String.split_on_char ',' rendered |> List.map String.trim
              in
              let forged =
                List.exists (fun c -> c = "DNS:b.com") components
              in
              if forged then Esc_exploited
              else if
                (* Any rendering that does not leave the payload verbatim
                   and unambiguous deviates from the standards' advice. *)
                not (String.equal rendered ("DNS:" ^ gn_injection_value))
              then Esc_violation
              else Esc_violation))

let escaping_rows () =
  let flavors =
    [ ("RFC2253 DN", X509.Dn.Rfc2253); ("RFC4514 DN", X509.Dn.Rfc4514);
      ("RFC1779 DN", X509.Dn.Rfc1779) ]
  in
  List.map
    (fun (label, flavor) ->
      (label, List.map (fun m -> (m.Model.name, dn_escaping_verdict m flavor)) Models.all))
    flavors
  @ [
      ( "GN escaping",
        List.map (fun m -> (m.Model.name, gn_escaping_verdict m)) Models.all );
    ]

(* ------------------------------------------------------------------ *)

let render ppf =
  let libs = List.map (fun m -> m.Model.name) Models.all in
  Format.fprintf ppf "== Table 4: decoding methods for DN and GN ==@.";
  Format.fprintf ppf "%-24s" "Scenario";
  List.iter (fun l -> Format.fprintf ppf " | %-18s" l) libs;
  Format.fprintf ppf "@.";
  List.iter
    (fun (scenario, cells) ->
      Format.fprintf ppf "%-24s" (scenario_name scenario);
      List.iter
        (fun cell ->
          let text =
            match cell.inferred with
            | None -> String.concat "," (List.map Infer.verdict_symbol cell.verdicts)
            | Some (m, h) ->
                let flags =
                  String.concat "," (List.map Infer.verdict_symbol cell.verdicts)
                in
                if h = Infer.H_none then
                  Printf.sprintf "%s %s" (Infer.method_name m) flags
                else Printf.sprintf "%s* %s" (Infer.method_name m) flags
          in
          Format.fprintf ppf " | %-18s" text)
        cells;
      Format.fprintf ppf "@.")
    (decoding_matrix ());
  Format.fprintf ppf "@.== Table 5: standard violations in parsing DN and GN ==@.";
  Format.fprintf ppf "%-24s" "Violation";
  List.iter (fun l -> Format.fprintf ppf " | %-18s" l) libs;
  Format.fprintf ppf "@.";
  List.iter
    (fun (label, cells) ->
      Format.fprintf ppf "%-24s" label;
      List.iter (fun (_, t) -> Format.fprintf ppf " | %-18s" (tolerance_symbol t)) cells;
      Format.fprintf ppf "@.")
    (illegal_char_rows ());
  List.iter
    (fun (label, cells) ->
      Format.fprintf ppf "%-24s" label;
      List.iter (fun (_, v) -> Format.fprintf ppf " | %-18s" (escaping_symbol v)) cells;
      Format.fprintf ppf "@.")
    (escaping_rows ())
