type year_stats = {
  mutable issued : int;
  mutable issued_trusted : int;
  mutable alive_in_year : int;
  mutable nc : int;
  mutable nc_trusted : int;
}

type type_stats = {
  mutable certs : int;
  mutable by_new_lints : int;
  mutable errors : int;
  mutable warnings : int;
  mutable trusted : int;
  mutable recent : int;
  mutable alive : int;
}

type issuer_stats = {
  mutable total : int;
  mutable nc_count : int;
  mutable nc_recent : int;
  trust_now : Ctlog.Dataset.trust;
  trust_at_issuance : Ctlog.Dataset.trust;
  region : string;
  aggregate : bool;
}

type validity_class = V_idn | V_other | V_noncompliant | V_normal

type fault_stats = {
  mutable fault_errors : int;       (* per-certificate failures, all classes *)
  mutable quarantined : int;
  by_class : (string, int) Hashtbl.t;
  mutable lint_crashes : int;       (* lint-crash delta during this run *)
  mutable degraded : (string * int) list;
  mutable resumed_at : int;         (* 0 = fresh run *)
  mutable checkpoints_saved : int;
  mutable aborted : string option;  (* max-errors / fail-fast reason *)
}

type t = {
  scale : int;
  seed : int;
  mutable total : int;
  mutable idncerts : int;
  mutable trusted : int;
  mutable nc_total : int;
  mutable nc_ignoring_dates : int;
  mutable nc_old_lints_only : int;
  mutable nc_trusted : int;
  mutable nc_limited : int;
  mutable nc_untrusted : int;
  mutable nc_recent : int;
  mutable nc_alive : int;
  years : (int, year_stats) Hashtbl.t;
  types : (Lint.nc_type, type_stats) Hashtbl.t;
  lints : (string, int) Hashtbl.t;
  lints_ignoring_dates : (string, int) Hashtbl.t;
  issuers : (string, issuer_stats) Hashtbl.t;
  validity : (validity_class, int list ref) Hashtbl.t;
  fields : (string * string, int * int) Hashtbl.t;
  mutable encoding_error_certs : int;
  mutable encoding_error_verified : int;
  mutable encoding_error_subject : int;
  mutable encoding_error_san : int;
  mutable encoding_error_policies : int;
  faults : fault_stats;
  mutable coverage : Ctlog.Fetch.coverage list;
      (* per-log coverage when the corpus came from --source fetch *)
}

let fresh_year () =
  { issued = 0; issued_trusted = 0; alive_in_year = 0; nc = 0; nc_trusted = 0 }

let fresh_type () =
  { certs = 0; by_new_lints = 0; errors = 0; warnings = 0; trusted = 0; recent = 0;
    alive = 0 }

let year_tbl t y =
  match Hashtbl.find_opt t.years y with
  | Some s -> s
  | None ->
      let s = fresh_year () in
      Hashtbl.replace t.years y s;
      s

let type_tbl t ty =
  match Hashtbl.find_opt t.types ty with
  | Some s -> s
  | None ->
      let s = fresh_type () in
      Hashtbl.replace t.types ty s;
      s

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Physical encoding errors: declared type whose payload violates the
   standard byte encoding (§5.1's "ASN.1 encoding errors"). *)
let atv_encoding_error (atv : X509.Dn.atv) =
  match atv.X509.Dn.value with
  | Asn1.Value.Str (st, raw) -> Result.is_error (Asn1.Str_type.decode_value st raw)
  | _ -> false

let encoding_error_fields cert =
  let tbs = cert.X509.Certificate.tbs in
  let subject =
    List.exists atv_encoding_error (X509.Dn.all_atvs tbs.X509.Certificate.subject)
  in
  let san =
    List.exists
      (fun s -> not (Unicode.Codec.well_formed_utf8 s) && String.exists (fun c -> Char.code c > 0x7F) s)
      (X509.Certificate.san_dns_names cert)
  in
  let policies =
    match
      X509.Extension.find tbs.X509.Certificate.extensions
        X509.Extension.Oids.certificate_policies
    with
    | None -> false
    | Some e -> (
        match X509.Extension.parse_certificate_policies e.X509.Extension.value with
        | Error _ -> true
        | Ok ps ->
            List.exists
              (fun (p : X509.Extension.policy) ->
                match p.X509.Extension.notice with
                | Some { X509.Extension.explicit_text = Some (Asn1.Value.Str (st, raw)) }
                  ->
                    Result.is_error (Asn1.Str_type.decode_value st raw)
                | _ -> false)
              ps)
  in
  (subject, san, policies)

let recent_start = Asn1.Time.make 2024 1 1

let obs_nc =
  lazy
    (Obs.Registry.counter
       ~help:"Certificates the pipeline classified as noncompliant"
       "unicert_pipeline_noncompliant_total")

(* --- analysis rows ---------------------------------------------------

   A [row] is everything the aggregate needs from one certificate,
   already extracted: the expensive stages (lint, classify, DER
   re-parse, chain verification) run once in {!row_of_entry}, and
   {!absorb_row} folds the row into [t] from either a live entry or a
   stored row replayed out of the on-disk store.  Byte-identity of the
   final report across cold/warm runs rests on rows being a complete,
   deterministic projection. *)

type row = {
  r_index : int;
  r_org : string;            (* issuer organization; record rehydrated
                                via {!Ctlog.Dataset.issuer_of_org} *)
  r_issued : Asn1.Time.t;
  r_is_idn : bool;
  r_alive : bool;            (* valid into the 2024-25 window *)
  r_valid_year_end : bool;   (* valid at Dec 31 of the issue year *)
  r_validity_days : int;
  r_ufields : string list;   (* fields using beyond-ASCII Unicode *)
  r_enc_subject : bool;
  r_enc_san : bool;
  r_enc_policies : bool;
  r_enc_verified : bool;     (* encoding-error cert that still chains *)
  r_nc : string list;        (* NC lint names ignoring effective dates,
                                registry order *)
  r_domains : string list;   (* SAN dNSNames, for the store indexes *)
  r_cns : string list;       (* subject CommonName values, for monitor
                                ingest from stored rows *)
  r_attrs : string list;     (* subject O/OU/emailAddress values *)
}

(* Subject material the monitor daemon indexes (§6.1): shared by both
   engines so rows stay byte-identical across them. *)
let subject_fields cert =
  let subject = cert.X509.Certificate.tbs.X509.Certificate.subject in
  let get a = X509.Dn.get_text subject a in
  ( get X509.Attr.Common_name,
    get X509.Attr.Organization_name
    @ get X509.Attr.Organizational_unit_name
    @ get X509.Attr.Email_address )

(* Stage timer handed to {!row_of_entry}; polymorphic so one closure
   can time stages with different result types. *)
type timer = { timed : 'a. string -> (unit -> 'a) -> 'a }

let no_timer = { timed = (fun _ f -> f ()) }

(* Fused-engine §5.1 scan: the strict per-ATV decode outcome is already
   in the fact table ([cps = None] for a string-typed ATV is exactly
   [Asn1.Str_type.decode_value] failing), and the SAN names and
   explicitText payloads were extracted by the same single parse. *)
let encoding_error_fields_of_ctx (ctx : Lint.Ctx.t) =
  let subject =
    List.exists
      (fun (info : Lint.Ctx.atv_info) ->
        match info.Lint.Ctx.atv.X509.Dn.value with
        | Asn1.Value.Str _ -> info.Lint.Ctx.cps = None
        | _ -> false)
      ctx.Lint.Ctx.subject
  in
  let san =
    List.exists
      (fun s -> not (Unicode.Codec.well_formed_utf8 s) && String.exists (fun c -> Char.code c > 0x7F) s)
      (Lint.Ctx.san_dns ctx)
  in
  let policies =
    match ctx.Lint.Ctx.policies with
    | None -> false
    | Some (Error _) -> true
    | Some (Ok _) ->
        List.exists
          (fun (st, raw) -> Result.is_error (Asn1.Str_type.decode_value st raw))
          ctx.Lint.Ctx.etexts
  in
  (subject, san, policies)

(* The per-certificate stage spans, declared once (see {!Obs.Span.v}). *)
let parse_span = Obs.Span.v "parse"
let classify_span = Obs.Span.v "classify"
let aggregate_span = Obs.Span.v "aggregate"

(* The retained reference engine: every stage re-derives its own facts
   from the certificate (the pre-fusion behavior).  The differential
   test selects it with {!use_reference_engine}, drives both engines
   and asserts byte-identical reports. *)
let reference_engine = ref false

let use_reference_engine b = reference_engine := b

let row_of_entry_reference ~timer (entry : Ctlog.Dataset.entry) ~index =
  let timed = timer.timed in
  let cert = entry.Ctlog.Dataset.cert in
  let issuer = entry.Ctlog.Dataset.issuer in
  let issued = entry.Ctlog.Dataset.issued in
  let trusted = issuer.Ctlog.Dataset.trust_at_issuance = Ctlog.Dataset.Public in
  let alive =
    Asn1.Time.(recent_start <= fst cert.X509.Certificate.tbs.X509.Certificate.not_after)
    && Asn1.Time.(fst cert.X509.Certificate.tbs.X509.Certificate.not_before
                  <= Ctlog.Dataset.analysis_date)
  in
  (* Lint the certificate once, without date gating; date-gated views
     are re-derived wherever the row is absorbed.  The stage spans
     around lint (inside {!Lint.Registry.run}), parse and classify keep
     per-stage wall clock visible in the exported span histogram. *)
  let nc =
    timed "lint" (fun () ->
        Lint.Registry.run ~respect_effective_dates:false ~issued cert)
    |> List.filter_map (fun (f : Lint.finding) ->
           if Lint.is_noncompliant f then Some f.Lint.lint else None)
  in
  let ufields =
    timed "classify" (fun () ->
        Obs.Span.run classify_span (fun () -> Classify.unicode_fields cert))
    |> List.filter_map (fun (field, beyond) -> if beyond then Some field else None)
  in
  (* §5.1 encoding-error scan: re-parse the DER payloads. *)
  let enc_subject, enc_san, enc_policies =
    timed "decode" (fun () ->
        Obs.Span.run parse_span (fun () -> encoding_error_fields cert))
  in
  let enc_verified =
    (enc_subject || enc_san || enc_policies)
    && trusted
    && X509.Certificate.verify
         ~issuer_spki:(X509.Certificate.keypair_spki issuer.Ctlog.Dataset.keypair)
         cert
  in
  let year_end = Asn1.Time.make issued.Asn1.Time.year 12 31 in
  let r_cns, r_attrs = subject_fields cert in
  ( {
      r_index = index;
      r_org = issuer.Ctlog.Dataset.org;
      r_issued = issued;
      r_is_idn = entry.Ctlog.Dataset.is_idn;
      r_alive = alive;
      r_valid_year_end = X509.Certificate.is_valid_at cert year_end;
      r_validity_days = X509.Certificate.validity_days cert;
      r_ufields = ufields;
      r_enc_subject = enc_subject;
      r_enc_san = enc_san;
      r_enc_policies = enc_policies;
      r_enc_verified = enc_verified;
      r_nc = List.map (fun (l : Lint.t) -> l.Lint.name) nc;
      r_domains = X509.Certificate.san_dns_names cert;
      r_cns;
      r_attrs;
    },
    nc )

(* The fused engine: one decode builds the fact table under the parse
   span, and the lint, classify and encoding-error stages are lookups
   over it.  Must produce rows byte-identical to
   {!row_of_entry_reference}. *)
let row_of_entry_fused ~timer (entry : Ctlog.Dataset.entry) ~index =
  let timed = timer.timed in
  let cert = entry.Ctlog.Dataset.cert in
  let issuer = entry.Ctlog.Dataset.issuer in
  let issued = entry.Ctlog.Dataset.issued in
  let trusted = issuer.Ctlog.Dataset.trust_at_issuance = Ctlog.Dataset.Public in
  let alive =
    Asn1.Time.(recent_start <= fst cert.X509.Certificate.tbs.X509.Certificate.not_after)
    && Asn1.Time.(fst cert.X509.Certificate.tbs.X509.Certificate.not_before
                  <= Ctlog.Dataset.analysis_date)
  in
  let ctx, (enc_subject, enc_san, enc_policies) =
    timed "decode" (fun () ->
        Obs.Span.run parse_span (fun () ->
            let ctx = Lint.Ctx.of_cert cert in
            (ctx, encoding_error_fields_of_ctx ctx)))
  in
  let nc =
    timed "lint" (fun () ->
        Lint.Registry.run_ctx ~respect_effective_dates:false ~issued ctx)
  in
  let ufields =
    timed "classify" (fun () ->
        Obs.Span.run classify_span (fun () ->
            Classify.unicode_fields_of_ctx ctx))
    |> List.filter_map (fun (field, beyond) -> if beyond then Some field else None)
  in
  let enc_verified =
    (enc_subject || enc_san || enc_policies)
    && trusted
    && X509.Certificate.verify
         ~issuer_spki:(X509.Certificate.keypair_spki issuer.Ctlog.Dataset.keypair)
         cert
  in
  let year_end = Asn1.Time.make issued.Asn1.Time.year 12 31 in
  let r_cns, r_attrs = subject_fields cert in
  ( {
      r_index = index;
      r_org = issuer.Ctlog.Dataset.org;
      r_issued = issued;
      r_is_idn = entry.Ctlog.Dataset.is_idn;
      r_alive = alive;
      r_valid_year_end = X509.Certificate.is_valid_at cert year_end;
      r_validity_days = X509.Certificate.validity_days cert;
      r_ufields = ufields;
      r_enc_subject = enc_subject;
      r_enc_san = enc_san;
      r_enc_policies = enc_policies;
      r_enc_verified = enc_verified;
      r_nc = List.map (fun (l : Lint.t) -> l.Lint.name) nc;
      r_domains = Lint.Ctx.san_dns ctx;
      r_cns;
      r_attrs;
    },
    nc )

let row_of_entry ~timer entry ~index =
  if !reference_engine then row_of_entry_reference ~timer entry ~index
  else row_of_entry_fused ~timer entry ~index

(* Outside tests, the benchmark's traced replica of the daemon tick is
   the only caller. *)
let analyze_entry entry ~index = fst (row_of_entry ~timer:no_timer entry ~index)
let row_index r = r.r_index
let row_org r = r.r_org
let row_nc r = r.r_nc
let row_domains r = r.r_domains
let row_cns r = r.r_cns
let row_attrs r = r.r_attrs

(* Fold one row into the aggregate.  [nc] is the row's NC lint records
   (ignoring dates); callers replaying stored rows rehydrate it with
   {!Lint.Registry.find}, which silently drops lints that no longer
   exist in the registry. *)
let absorb_row t ~issuer row (nc : Lint.t list) =
  let issued = row.r_issued in
  let year = issued.Asn1.Time.year in
  let trusted = issuer.Ctlog.Dataset.trust_at_issuance = Ctlog.Dataset.Public in
  let recent = Asn1.Time.(recent_start <= issued) in
  let alive = row.r_alive in
  let dated =
    List.filter (fun (l : Lint.t) -> Asn1.Time.(l.Lint.effective_date <= issued)) nc
  in
  let noncompliant = dated <> [] in
  t.total <- t.total + 1;
  if row.r_is_idn then t.idncerts <- t.idncerts + 1;
  if trusted then t.trusted <- t.trusted + 1;
  let ys = year_tbl t year in
  ys.issued <- ys.issued + 1;
  if trusted then ys.issued_trusted <- ys.issued_trusted + 1;
  (* Alive lines of Figure 2: certs still valid at the end of their
     issue year (cheap proxy computed per issue year). *)
  if row.r_valid_year_end then ys.alive_in_year <- ys.alive_in_year + 1;
  (* Issuer table *)
  let istats =
    match Hashtbl.find_opt t.issuers issuer.Ctlog.Dataset.org with
    | Some s -> s
    | None ->
        let s =
          { total = 0; nc_count = 0; nc_recent = 0;
            trust_now = issuer.Ctlog.Dataset.trust_now;
            trust_at_issuance = issuer.Ctlog.Dataset.trust_at_issuance;
            region = issuer.Ctlog.Dataset.region;
            aggregate = issuer.Ctlog.Dataset.aggregate }
        in
        Hashtbl.replace t.issuers issuer.Ctlog.Dataset.org s;
        s
  in
  istats.total <- istats.total + 1;
  if nc <> [] then t.nc_ignoring_dates <- t.nc_ignoring_dates + 1;
  List.iter (fun (l : Lint.t) -> bump t.lints_ignoring_dates l.Lint.name) nc;
  if List.exists (fun (l : Lint.t) -> not l.Lint.is_new) dated then
    t.nc_old_lints_only <- t.nc_old_lints_only + 1;
  (* Figure 4 heat map: per (issuer, field) unicode usage and deviance. *)
  List.iter
    (fun field ->
      let u, d = Option.value ~default:(0, 0) (Hashtbl.find_opt t.fields (row.r_org, field)) in
      Hashtbl.replace t.fields (row.r_org, field)
        (u + 1, if noncompliant then d + 1 else d))
    row.r_ufields;
  (* Validity distributions (Figure 3). *)
  let days = row.r_validity_days in
  let push cls =
    let l =
      match Hashtbl.find_opt t.validity cls with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.replace t.validity cls l;
          l
    in
    l := days :: !l
  in
  if row.r_is_idn then push V_idn else push V_other;
  if noncompliant then push V_noncompliant else push V_normal;
  (* §5.1 encoding-error impact accounting, with chain verification. *)
  if row.r_enc_subject || row.r_enc_san || row.r_enc_policies then begin
    t.encoding_error_certs <- t.encoding_error_certs + 1;
    if row.r_enc_subject then t.encoding_error_subject <- t.encoding_error_subject + 1;
    if row.r_enc_san then t.encoding_error_san <- t.encoding_error_san + 1;
    if row.r_enc_policies then t.encoding_error_policies <- t.encoding_error_policies + 1;
    if row.r_enc_verified then
      t.encoding_error_verified <- t.encoding_error_verified + 1
  end;
  if noncompliant then begin
    Obs.Counter.inc (Lazy.force obs_nc);
    t.nc_total <- t.nc_total + 1;
    (match issuer.Ctlog.Dataset.trust_at_issuance with
    | Ctlog.Dataset.Public -> t.nc_trusted <- t.nc_trusted + 1
    | Ctlog.Dataset.Limited -> t.nc_limited <- t.nc_limited + 1
    | Ctlog.Dataset.Untrusted -> t.nc_untrusted <- t.nc_untrusted + 1);
    if recent then t.nc_recent <- t.nc_recent + 1;
    if alive then t.nc_alive <- t.nc_alive + 1;
    ys.nc <- ys.nc + 1;
    if trusted then ys.nc_trusted <- ys.nc_trusted + 1;
    istats.nc_count <- istats.nc_count + 1;
    if recent then istats.nc_recent <- istats.nc_recent + 1;
    (* Per-lint histogram (one count per cert per lint). *)
    List.iter (fun (l : Lint.t) -> bump t.lints l.Lint.name) dated;
    (* Taxonomy rows of Table 1. *)
    List.iter
      (fun ty ->
        let of_type =
          List.filter (fun (l : Lint.t) -> l.Lint.nc_type = ty) dated
        in
        if of_type <> [] then begin
          let s = type_tbl t ty in
          s.certs <- s.certs + 1;
          if List.for_all (fun (l : Lint.t) -> l.Lint.is_new) of_type
          then s.by_new_lints <- s.by_new_lints + 1;
          if
            List.exists (fun (l : Lint.t) -> Lint.severity l = Lint.Error) of_type
          then s.errors <- s.errors + 1;
          if
            List.exists (fun (l : Lint.t) -> Lint.severity l = Lint.Warning) of_type
          then s.warnings <- s.warnings + 1;
          if trusted then s.trusted <- s.trusted + 1;
          if recent then s.recent <- s.recent + 1;
          if alive then s.alive <- s.alive + 1
        end)
      Lint.all_nc_types
  end

(* Under --profile, each stage is additionally timed with a plain
   gettimeofday pair (NOT another Span: lint opens its own span inside
   {!Lint.Registry.run}, and double-counting the histogram would skew
   the exported per-stage totals).  The per-certificate total and its
   most expensive stage feed the top-K slow-cert log. *)
let with_profiling ~index f =
  let profiling = Obs.Profile.enabled () in
  let cert_t0 = if profiling then Unix.gettimeofday () else 0. in
  let worst_stage = ref "lint" in
  let worst_dt = ref neg_infinity in
  let timer =
    if not profiling then no_timer
    else
      { timed =
          (fun stage g ->
            let t0 = Unix.gettimeofday () in
            let r = g () in
            let dt = Unix.gettimeofday () -. t0 in
            if dt > !worst_dt then begin
              worst_dt := dt;
              worst_stage := stage
            end;
            r) }
  in
  let note_aggregate g =
    let agg_t0 = if profiling then Unix.gettimeofday () else 0. in
    let r = Obs.Span.run aggregate_span g in
    if profiling then begin
      let now = Unix.gettimeofday () in
      let agg_dt = now -. agg_t0 in
      if agg_dt > !worst_dt then begin
        worst_dt := agg_dt;
        worst_stage := "aggregate"
      end;
      Obs.Profile.note_slow ~index ~seconds:(now -. cert_t0) ~stage:!worst_stage
    end;
    r
  in
  f ~timer ~note_aggregate

let fresh ~scale ~seed =
  {
    scale;
    seed;
    total = 0;
    idncerts = 0;
    trusted = 0;
    nc_total = 0;
    nc_ignoring_dates = 0;
    nc_old_lints_only = 0;
    nc_trusted = 0;
    nc_limited = 0;
    nc_untrusted = 0;
    nc_recent = 0;
    nc_alive = 0;
    years = Hashtbl.create 16;
    types = Hashtbl.create 8;
    lints = Hashtbl.create 128;
    lints_ignoring_dates = Hashtbl.create 128;
    issuers = Hashtbl.create 64;
    validity = Hashtbl.create 4;
    fields = Hashtbl.create 256;
    encoding_error_certs = 0;
    encoding_error_verified = 0;
    encoding_error_subject = 0;
    encoding_error_san = 0;
    encoding_error_policies = 0;
    faults =
      { fault_errors = 0; quarantined = 0; by_class = Hashtbl.create 8;
        lint_crashes = 0; degraded = []; resumed_at = 0; checkpoints_saved = 0;
        aborted = None };
    coverage = [];
  }

(* --- the per-certificate error boundary ----------------------------- *)

(* The one control exception: raised inside a shard when the run
   aborted (this shard or another hit fail-fast or the error budget);
   it unwinds the shard loop so the domain can be joined. *)
exception Shard_stop

(* A fault is a point on the trace timeline, not a span: the
   certificate it belongs to never completed one. *)
let trace_fault ~index error =
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~cat:"fault"
      ~args:
        [ ("class", Obs.Trace.Str (Faults.Error.class_name error));
          ("index", Obs.Trace.Int index) ]
      "fault"

(* The one guarded step over a live entry: analyze it into a row, fold
   the row into [part] when there is one and hand it to [sink].  A
   failure is classified and handed to [fault]; the control exception
   and store failures pass through untouched. *)
let analyze ?part policy ~fault ~sink index (entry : Ctlog.Dataset.entry) =
  let der = entry.Ctlog.Dataset.cert.X509.Certificate.der in
  let work () =
    with_profiling ~index (fun ~timer ~note_aggregate ->
        let row, nc = row_of_entry ~timer entry ~index in
        note_aggregate (fun () ->
            Option.iter
              (fun part -> absorb_row part ~issuer:entry.Ctlog.Dataset.issuer row nc)
              part);
        sink ~der row)
  in
  match
    match policy.Faults.Policy.timeout_seconds with
    | Some s -> Faults.Watchdog.with_timeout ~stage:"process" ~seconds:s work
    | None -> work ()
  with
  | () -> ()
  | exception ((Shard_stop | Store.Chaos.Crashed _ | Store.Db.Store_error _) as e)
    ->
      raise e
  | exception Faults.Watchdog.Timed_out { stage; seconds } ->
      fault ~index ~der (Faults.Error.Timeout { stage; seconds })
  | exception e ->
      fault ~index ~der (Faults.Error.of_exn ~stage:"process" e)

let snapshot_crashes () =
  List.fold_left (fun acc (_, n, _) -> acc + n) 0 (Lint.Registry.fault_snapshot ())

(* --- deterministic merge of shard aggregates ------------------------- *)

let bump_by tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Fold one shard's aggregate into [dst].  Every field is a sum (or a
   bag, for validity samples), so merging shards in index order yields
   exactly the totals of one pass over the whole range.  [lint_crashes],
   [degraded], [resumed_at] and [aborted] are owned by the coordinator
   and skipped here. *)
let merge_into dst (src : t) =
  dst.total <- dst.total + src.total;
  dst.idncerts <- dst.idncerts + src.idncerts;
  dst.trusted <- dst.trusted + src.trusted;
  dst.nc_total <- dst.nc_total + src.nc_total;
  dst.nc_ignoring_dates <- dst.nc_ignoring_dates + src.nc_ignoring_dates;
  dst.nc_old_lints_only <- dst.nc_old_lints_only + src.nc_old_lints_only;
  dst.nc_trusted <- dst.nc_trusted + src.nc_trusted;
  dst.nc_limited <- dst.nc_limited + src.nc_limited;
  dst.nc_untrusted <- dst.nc_untrusted + src.nc_untrusted;
  dst.nc_recent <- dst.nc_recent + src.nc_recent;
  dst.nc_alive <- dst.nc_alive + src.nc_alive;
  Hashtbl.iter
    (fun y (s : year_stats) ->
      let d = year_tbl dst y in
      d.issued <- d.issued + s.issued;
      d.issued_trusted <- d.issued_trusted + s.issued_trusted;
      d.alive_in_year <- d.alive_in_year + s.alive_in_year;
      d.nc <- d.nc + s.nc;
      d.nc_trusted <- d.nc_trusted + s.nc_trusted)
    src.years;
  Hashtbl.iter
    (fun ty (s : type_stats) ->
      let d = type_tbl dst ty in
      d.certs <- d.certs + s.certs;
      d.by_new_lints <- d.by_new_lints + s.by_new_lints;
      d.errors <- d.errors + s.errors;
      d.warnings <- d.warnings + s.warnings;
      d.trusted <- d.trusted + s.trusted;
      d.recent <- d.recent + s.recent;
      d.alive <- d.alive + s.alive)
    src.types;
  Hashtbl.iter (fun k v -> bump_by dst.lints k v) src.lints;
  Hashtbl.iter
    (fun k v -> bump_by dst.lints_ignoring_dates k v)
    src.lints_ignoring_dates;
  Hashtbl.iter
    (fun org (s : issuer_stats) ->
      let d =
        match Hashtbl.find_opt dst.issuers org with
        | Some d -> d
        | None ->
            let d =
              { total = 0; nc_count = 0; nc_recent = 0; trust_now = s.trust_now;
                trust_at_issuance = s.trust_at_issuance; region = s.region;
                aggregate = s.aggregate }
            in
            Hashtbl.replace dst.issuers org d;
            d
      in
      d.total <- d.total + s.total;
      d.nc_count <- d.nc_count + s.nc_count;
      d.nc_recent <- d.nc_recent + s.nc_recent)
    src.issuers;
  Hashtbl.iter
    (fun cls l ->
      match Hashtbl.find_opt dst.validity cls with
      | Some d -> d := List.rev_append !l !d
      | None -> Hashtbl.replace dst.validity cls (ref !l))
    src.validity;
  Hashtbl.iter
    (fun key (u, d) ->
      let u0, d0 = Option.value ~default:(0, 0) (Hashtbl.find_opt dst.fields key) in
      Hashtbl.replace dst.fields key (u0 + u, d0 + d))
    src.fields;
  dst.encoding_error_certs <- dst.encoding_error_certs + src.encoding_error_certs;
  dst.encoding_error_verified <- dst.encoding_error_verified + src.encoding_error_verified;
  dst.encoding_error_subject <- dst.encoding_error_subject + src.encoding_error_subject;
  dst.encoding_error_san <- dst.encoding_error_san + src.encoding_error_san;
  dst.encoding_error_policies <- dst.encoding_error_policies + src.encoding_error_policies;
  dst.faults.fault_errors <- dst.faults.fault_errors + src.faults.fault_errors;
  dst.faults.quarantined <- dst.faults.quarantined + src.faults.quarantined;
  dst.faults.checkpoints_saved <-
    dst.faults.checkpoints_saved + src.faults.checkpoints_saved;
  Hashtbl.iter (fun k v -> bump_by dst.faults.by_class k v) src.faults.by_class


(* [Lazy.force] is not domain-safe in OCaml 5: every lazy handle a
   worker can touch must be forced on this domain before any spawn. *)
let prewarm policy =
  Ctlog.Dataset.prewarm ();
  ignore (Lazy.force obs_nc);
  (* Also forces every lint instrument. *)
  Lint.Registry.set_breaker_threshold policy.Faults.Policy.breaker_threshold;
  Faults.Error.prewarm ();
  Faults.Breaker.prewarm ();
  Faults.Injector.prewarm ();
  Faults.Quarantine.prewarm ()

let coverage_degraded t =
  List.exists (fun c -> not (Ctlog.Fetch.coverage_complete c)) t.coverage

type source = Generate | Fetch of Ctlog.Fetch.cfg

(* --- the on-disk store ------------------------------------------------

   With [--store DIR] the pass lands every certificate and its analysis
   row in a crash-safe content-addressed store (lib/store): a cold run
   populates it shard by shard, a re-run with the same lint set becomes
   a pure index scan (no generation, no parse, no lint), and a re-run
   with a changed lint set recomputes only the missing columns.  The
   store doubles as the checkpoint: after a crash at any point,
   re-running the same command recovers the intact prefix and resumes
   into a byte-identical report. *)

(* Text codec for analysis rows: one tab-separated line per
   certificate.  List elements and the org string are percent-escaped
   so tabs/commas/newlines in values can never break framing. *)

let row_needs_escape c =
  c = '%' || c = '\t' || c = '\n' || c = '\r' || c = ','

let hex_upper = "0123456789ABCDEF"

(* Append [s] to [b], each byte that needs it as '%' and two uppercase
   hex digits. *)
let add_escaped b s =
  if not (String.exists row_needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        if row_needs_escape c then (
          Buffer.add_char b '%';
          Buffer.add_char b hex_upper.[Char.code c lsr 4];
          Buffer.add_char b hex_upper.[Char.code c land 15])
        else Buffer.add_char b c)
      s

let row_escape s =
  if String.exists row_needs_escape s then (
    let b = Buffer.create (String.length s + 8) in
    add_escaped b s;
    Buffer.contents b)
  else s

let bchar = function true -> '1' | false -> '0'

(* One row, built in one buffer: ten tab-separated fields, the list
   fields comma-separated. *)
let encode_row r =
  let b = Buffer.create 256 in
  let tab () = Buffer.add_char b '\t' in
  let flag v = Buffer.add_char b (bchar v) in
  let list l =
    tab ();
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        add_escaped b v)
      l
  in
  Buffer.add_string b (string_of_int r.r_index);
  tab ();
  add_escaped b r.r_org;
  tab ();
  Buffer.add_string b (Asn1.Time.to_generalized r.r_issued);
  tab ();
  flag r.r_is_idn;
  flag r.r_alive;
  flag r.r_valid_year_end;
  flag r.r_enc_subject;
  flag r.r_enc_san;
  flag r.r_enc_policies;
  flag r.r_enc_verified;
  tab ();
  Buffer.add_string b (string_of_int r.r_validity_days);
  list r.r_ufields;
  list r.r_nc;
  list r.r_domains;
  list r.r_cns;
  list r.r_attrs;
  Buffer.contents b

(* [decode_row] reads a row with one cursor: every field is parsed in
   place, and each text value is copied out once — unescaped straight
   into its result when it holds a '%'.  A malformed row raises
   [Bad_row] inside the decoder, which returns it as [Error]. *)

exception Bad_row of string

let bad_row e = raise_notrace (Bad_row e)

type cursor = { src : string; mutable pos : int }

(* Hex value of an escape digit, or -1. *)
let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* Bytes [a, b) of [s] unescaped.  An escape is '%' and the two bytes
   after it, both before [b]: a hex digit, then a hex digit or '_' —
   the escape grammar of [int_of_string ("0x" ^ pair)], which the
   codec has always used ("%4_" is byte 4). *)
let unescape s a b =
  let out = Bytes.create (b - a) in
  let rec go i j =
    if i >= b then Bytes.sub_string out 0 j
    else
      let c = String.unsafe_get s i in
      if c <> '%' then (
        Bytes.unsafe_set out j c;
        go (i + 1) (j + 1))
      else if i + 2 < b then (
        let hi = hex_digit s.[i + 1] and c2 = s.[i + 2] in
        let lo = if c2 = '_' then 0 else hex_digit c2 in
        if hi < 0 || lo < 0 then bad_row "bad escape";
        Bytes.unsafe_set out j (Char.unsafe_chr (if c2 = '_' then hi else (16 * hi) + lo));
        go (i + 3) (j + 1))
      else bad_row "truncated escape"
  in
  go a 0

let row_unescape s =
  if not (String.contains s '%') then Ok s
  else match unescape s 0 (String.length s) with v -> Ok v | exception Bad_row e -> Error e

(* The next tab at or after [i], or the end of [s]. *)
let rec field_end s i =
  if i < String.length s && String.unsafe_get s i <> '\t' then field_end s (i + 1) else i

(* The end of the value at [i]: the next tab — or comma, in a list —
   or the end of [s]; [plain] also stops at a '%'. *)
let rec value_end s i ~list ~plain =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '\t' -> i
    | ',' when list -> i
    | '%' when plain -> i
    | _ -> value_end s (i + 1) ~list ~plain

(* Step over the tab that ends the current field. *)
let tab c =
  if c.pos < String.length c.src && c.src.[c.pos] = '\t' then c.pos <- c.pos + 1
  else bad_row "wrong field count"

let text c ~list =
  let a = c.pos in
  let p = value_end c.src a ~list ~plain:true in
  if p < String.length c.src && c.src.[p] = '%' then (
    let e = value_end c.src p ~list ~plain:false in
    c.pos <- e;
    unescape c.src a e)
  else (
    c.pos <- p;
    String.sub c.src a (p - a))

(* A comma-separated list field; empty when the field is. *)
let list_field c =
  let rec more acc =
    let acc = text c ~list:true :: acc in
    if c.pos < String.length c.src && c.src.[c.pos] = ',' then (
      c.pos <- c.pos + 1;
      more acc)
    else List.rev acc
  in
  if c.pos = String.length c.src || c.src.[c.pos] = '\t' then [] else more []

(* A decimal field read in place; any other spelling goes through
   [int_of_string_opt], as it always has. *)
let int_field c ~none =
  let a = c.pos in
  let e = field_end c.src a in
  c.pos <- e;
  let rec digits i acc =
    if i = e then acc
    else
      match String.unsafe_get c.src i with
      | '0' .. '9' as d -> digits (i + 1) ((10 * acc) + Char.code d - 48)
      | _ -> -1
  in
  let v = if e > a && e - a <= 18 then digits a 0 else -1 in
  if v >= 0 then v
  else
    match int_of_string_opt (String.sub c.src a (e - a)) with
    | Some v -> v
    | None -> bad_row none

let decode_row s =
  let c = { src = s; pos = 0 } in
  match
    let r_index = int_field c ~none:"bad index" in
    tab c;
    let r_org = text c ~list:false in
    tab c;
    let r_issued =
      let e = field_end s c.pos in
      match Asn1.Time.of_generalized_sub s ~pos:c.pos ~len:(e - c.pos) with
      | Ok t ->
          c.pos <- e;
          t
      | Error m -> bad_row m
    in
    tab c;
    let f = c.pos in
    if field_end s f - f <> 7 then bad_row "bad flags";
    c.pos <- f + 7;
    tab c;
    let r_validity_days = int_field c ~none:"bad validity" in
    tab c;
    let r_ufields = list_field c in
    tab c;
    let r_nc = list_field c in
    tab c;
    let r_domains = list_field c in
    (* Rows written before the monitor-ingest fields existed have 8
       columns; decode them with empty subject material so old stores
       stay readable. *)
    let r_cns, r_attrs =
      if c.pos = String.length s then ([], [])
      else (
        tab c;
        let cns = list_field c in
        tab c;
        let attrs = list_field c in
        if c.pos <> String.length s then bad_row "wrong field count";
        (cns, attrs))
    in
    {
      r_index;
      r_org;
      r_issued;
      r_is_idn = s.[f] = '1';
      r_alive = s.[f + 1] = '1';
      r_valid_year_end = s.[f + 2] = '1';
      r_validity_days;
      r_ufields;
      r_enc_subject = s.[f + 3] = '1';
      r_enc_san = s.[f + 4] = '1';
      r_enc_policies = s.[f + 5] = '1';
      r_enc_verified = s.[f + 6] = '1';
      r_nc;
      r_domains;
      r_cns;
      r_attrs;
    }
  with
  | row -> Ok row
  | exception Bad_row e ->
      (* A row without 8 or 10 columns reports that first, whatever
         else is wrong with it. *)
      let tabs = ref 0 in
      String.iter (fun ch -> if ch = '\t' then incr tabs) s;
      Error (if !tabs = 7 || !tabs = 9 then e else "wrong field count")

(* Fetch coverage round-trips through manifest meta so a warm run can
   skip the transport entirely and still print the coverage section. *)

let encode_coverage (cs : Ctlog.Fetch.coverage list) =
  String.concat "\n"
    (List.map
       (fun (c : Ctlog.Fetch.coverage) ->
         String.concat "\t"
           [ row_escape c.Ctlog.Fetch.log;
             string_of_int c.Ctlog.Fetch.expected;
             string_of_int c.Ctlog.Fetch.delivered;
             string_of_int c.Ctlog.Fetch.quarantined;
             String.concat ","
               (List.map
                  (fun (a, b) -> Printf.sprintf "%d-%d" a b)
                  c.Ctlog.Fetch.spans);
             string_of_int c.Ctlog.Fetch.page_gaps;
             (match c.Ctlog.Fetch.abandoned with
             | None -> ""
             | Some r -> row_escape r);
             String.make 1 (bchar c.Ctlog.Fetch.split_view);
             string_of_int c.Ctlog.Fetch.requests;
             string_of_int c.Ctlog.Fetch.retries ])
       cs)

let decode_coverage s =
  let ( let* ) = Result.bind in
  let span_of s =
    match String.split_on_char '-' s with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> Ok (a, b)
        | _ -> Error "bad span")
    | _ -> Error "bad span"
  in
  let int_of s = Option.to_result ~none:"bad int" (int_of_string_opt s) in
  let line l =
    match String.split_on_char '\t' l with
    | [ log; exp_; del; quar; spans; gaps; ab; sv; req; ret ] ->
        let* log = row_unescape log in
        let* expected = int_of exp_ in
        let* delivered = int_of del in
        let* quarantined = int_of quar in
        let* spans =
          if spans = "" then Ok []
          else
            List.fold_right
              (fun sp acc ->
                let* acc = acc in
                let* sp = span_of sp in
                Ok (sp :: acc))
              (String.split_on_char ',' spans)
              (Ok [])
        in
        let* page_gaps = int_of gaps in
        let* abandoned =
          if ab = "" then Ok None else Result.map Option.some (row_unescape ab)
        in
        let* requests = int_of req in
        let* retries = int_of ret in
        Ok
          {
            Ctlog.Fetch.log;
            expected;
            delivered;
            quarantined;
            spans;
            page_gaps;
            abandoned;
            split_view = sv = "1";
            requests;
            retries;
          }
    | _ -> Error "wrong coverage field count"
  in
  List.fold_right
    (fun l acc ->
      let* acc = acc in
      let* c = line l in
      Ok (c :: acc))
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' s))
    (Ok [])

(* --- store identity and inventory helpers --- *)

let lints_signature () =
  String.concat ";" (List.map (fun (l : Lint.t) -> l.Lint.name) Lint.Registry.all)

(* The store fingerprint pins everything besides (scale, seed) that
   shapes corpus *content*: the source (and its transport/fault
   configuration) plus the mutation campaign.  Reusing a store under a
   different campaign would silently blend corpora, so a mismatch is a
   hard [Store_error]. *)
let store_fingerprint ~mutator ~drop ~source =
  let src =
    match source with
    | Generate -> "generate"
    | Fetch cfg -> "fetch:" ^ Ucrypto.Sha256.hex (Marshal.to_string cfg [])
  in
  let mut =
    match mutator with
    | None -> "none"
    | Some (p : Faults.Mutator.plan) -> Ucrypto.Sha256.hex (Marshal.to_string p [])
  in
  Printf.sprintf "source=%s;mutator=%s;drop=%b" src mut drop

let content_address (man : Store.Manifest.t) =
  Ucrypto.Sha256.hex
    (String.concat ""
       (List.map (fun (s : Store.Manifest.seg) -> s.Store.Manifest.seal)
          (man.Store.Manifest.segments @ man.Store.Manifest.rows)))

(* --- store index accumulation --- *)

type index_acc = {
  mutable ix_issuer : (string * int list) list;
  mutable ix_lint : (string * int list) list;
  mutable ix_flaw : (string * int list) list;
  mutable ix_domain : (string * int list) list;
  mutable ix_ulabel : (string * int list) list;
}

let fresh_acc () =
  { ix_issuer = []; ix_lint = []; ix_flaw = []; ix_domain = []; ix_ulabel = [] }

(* Derive every index entry for one certificate from its row alone, so
   index rebuilds never touch DER.  [on_entry] sees each entry as it is
   added. *)
let add_index_entries ?(on_entry = fun ~index:_ ~key:_ -> ()) acc row =
  let i = row.r_index in
  acc.ix_issuer <- (row.r_org, [ i ]) :: acc.ix_issuer;
  on_entry ~index:"issuer" ~key:row.r_org;
  let dated =
    List.filter_map Lint.Registry.find row.r_nc
    |> List.filter (fun (l : Lint.t) ->
           Asn1.Time.(l.Lint.effective_date <= row.r_issued))
  in
  List.iter
    (fun (l : Lint.t) ->
      acc.ix_lint <- (l.Lint.name, [ i ]) :: acc.ix_lint;
      on_entry ~index:"lint" ~key:l.Lint.name)
    dated;
  List.iter
    (fun ty ->
      acc.ix_flaw <- (ty, [ i ]) :: acc.ix_flaw;
      on_entry ~index:"flaw" ~key:ty)
    (List.sort_uniq compare
       (List.map (fun (l : Lint.t) -> Lint.nc_type_name l.Lint.nc_type) dated));
  let labels =
    List.sort_uniq compare (List.concat_map Idna.Dns.split_labels row.r_domains)
  in
  let ulabel key =
    acc.ix_ulabel <- (key, [ i ]) :: acc.ix_ulabel;
    on_entry ~index:"ulabel" ~key
  in
  List.iter
    (fun lab ->
      acc.ix_domain <- (lab, [ i ]) :: acc.ix_domain;
      on_entry ~index:"domain" ~key:lab;
      (* The ulabel index keys the *other* IDNA form: U-label for an
         A-label in the SAN (and vice versa), so lookups work in either
         spelling. *)
      if Idna.Dns.is_a_label_candidate lab then (
        match Idna.label_to_unicode lab with
        | Ok u when u <> lab && u <> "" -> ulabel u
        | _ -> ())
      else if String.exists (fun c -> Char.code c > 0x7F) lab then
        match Idna.label_to_ascii lab with
        | Ok a when a <> "" -> ulabel a
        | _ -> ())
    labels

let merge_accs accs =
  let cat f = List.concat_map f accs in
  [ ("issuer", cat (fun a -> List.rev a.ix_issuer));
    ("lint", cat (fun a -> List.rev a.ix_lint));
    ("flaw", cat (fun a -> List.rev a.ix_flaw));
    ("domain", cat (fun a -> List.rev a.ix_domain));
    ("ulabel", cat (fun a -> List.rev a.ix_ulabel)) ]

(* The entries staged since the last commit, as one more index delta;
   returns the delta list for the next manifest. *)
let save_indexes db named = Store.Db.save_indexes db named

(* --- replaying stored records --- *)

let store_corrupt fmt =
  Printf.ksprintf (fun s -> raise (Store.Db.Store_error s)) fmt

(* The row of stored record [index], as every replay decodes it. *)
let stored_row ~index rowstr =
  match decode_row rowstr with
  | Ok row -> row
  | Error e ->
      store_corrupt "stored row %d undecodable (%s); run `unicert-store fsck`"
        index e

(* Absorb one stored record: cert rows pass through [refresh] and
   re-enter the aggregate through {!absorb_row} (no parse, no lint
   unless [refresh] recomputes lints); fault records replay through the
   caller's boundary so quarantine, budgets and robustness reporting
   match the cold run.  Returns the row for cert records. *)
let replay_stored t ~record ~refresh recd rowstr =
  match recd with
  | Store.Db.Fault { index; class_; detail; der } ->
      record ~index ~der (Faults.Error.of_class ~class_ ~detail);
      None
  | Store.Db.Cert { index; der } -> (
      let row = refresh ~der (stored_row ~index rowstr) in
      match Ctlog.Dataset.issuer_of_org row.r_org with
      | None ->
          store_corrupt "stored row %d references unknown issuer %S" index
            row.r_org
      | Some issuer ->
          let nc = List.filter_map Lint.Registry.find row.r_nc in
          Obs.Span.run aggregate_span (fun () -> absorb_row t ~issuer row nc);
          Some row)

(* Incremental recompute after the lint set changed from [stored]: run
   only the missing lints over the stored DER and merge them with the
   stored findings; names of removed lints drop out. *)
let recompute_lints ~stored =
  let stored = String.split_on_char ';' stored in
  let current = List.map (fun (l : Lint.t) -> l.Lint.name) Lint.Registry.all in
  let missing = List.filter (fun n -> not (List.mem n stored)) current in
  fun ~der row ->
    let fresh_nc =
      if missing = [] then []
      else
        match X509.Certificate.parse der with
        | Error e ->
            store_corrupt "stored certificate %d unparseable (%s)" row.r_index
              (Faults.Error.to_string e)
        | Ok cert ->
            Lint.Registry.run_ctx ~respect_effective_dates:false
              ~only:(fun l -> List.mem l.Lint.name missing)
              ~issued:row.r_issued (Lint.Ctx.of_cert cert)
            |> List.map (fun (l : Lint.t) -> l.Lint.name)
    in
    let keep n = List.mem n row.r_nc || List.mem n fresh_nc in
    { row with r_nc = List.filter keep current }

let stored_coverage db =
  match Store.Db.meta db "coverage" with
  | None -> []
  | Some s -> (
      match decode_coverage s with
      | Ok cov -> cov
      | Error e -> store_corrupt "stored coverage undecodable (%s)" e)

(* What lands for one item: a certificate with its encoded row, or a
   fault as a fault record with the ["F"] row, so a warm replay
   reproduces the cold run's fault ledger. *)
let cert_pair ~der row = (Store.Db.Cert { index = row.r_index; der }, encode_row row)

let fault_pair ~index ~der error =
  ( Store.Db.Fault
      { index;
        class_ = Faults.Error.class_name error;
        detail = Faults.Error.detail error;
        der },
    "F" )

(* --- pieces: the interleaving of recovered coverage and gaps --- *)

type piece =
  | Stored of (Store.Manifest.seg * Store.Manifest.seg)
  | Gap of (int * int)

let piece_lo = function
  | Stored ((c : Store.Manifest.seg), _) -> c.Store.Manifest.lo
  | Gap (lo, _) -> lo

let build_pieces db ~scale =
  List.merge
    (fun a b -> compare (piece_lo a) (piece_lo b))
    (List.map (fun pr -> Stored pr) (Store.Db.spans db))
    (List.map (fun g -> Gap g) (Store.Db.gaps db ~scale))

(* --- sources: live deliveries over an index range, ascending ---

   A source hands each delivery over as its index and a thunk for its
   item, so fetched DER is parsed by the driver's step, inside the
   shard that reaches it, and dropped with its row. *)

type feed = start:int -> stop:int -> (int -> (unit -> Ctlog.Fetch.item) -> unit) -> unit

let generate_feed ~scale ~seed ~mutator ~drop : feed =
 fun ~start ~stop f ->
  Ctlog.Dataset.iter_deliveries ~scale ~start ~stop ?mutator ~drop ~seed
    (fun index -> function
      | Ctlog.Dataset.Entry e -> f index (fun () -> Ctlog.Fetch.Got (index, e))
      | Ctlog.Dataset.Corrupt { der; error; _ } ->
          f index (fun () -> Ctlog.Fetch.Undecodable (index, der, error)))

(* Fetched deliveries in hand, ascending by index: a range starts one
   binary search in. *)
let fetched_feed deliveries : feed =
  let ds = Array.of_list deliveries in
  let n = Array.length ds in
  let index i = Ctlog.Fetch.delivery_index ds.(i) in
  fun ~start ~stop f ->
    let rec first a b =
      if a >= b then a
      else
        let m = (a + b) / 2 in
        if index m < start then first (m + 1) b else first a m
    in
    let i = ref (first 0 n) in
    while !i < n && index !i < stop do
      let d = ds.(!i) in
      f (index !i) (fun () -> Ctlog.Fetch.decode d);
      incr i
    done

(* The fetch source fetches the corpus up front; each delivery is
   parsed when its shard reaches it. *)
let fetch_feed ~scale ~seed ~policy ~mutator ~drop ~resume ~jobs cfg =
  let deliveries, coverage =
    Obs.Span.with_ "fetch" (fun () ->
        Ctlog.Fetch.corpus ~scale ~seed ?mutator ~drop
          ?checkpoint:policy.Faults.Policy.checkpoint_file ~resume ~jobs cfg)
  in
  (fetched_feed deliveries, coverage)

(* The live source a run reads when nothing is stored: [coverage] is
   [[]] for the generate source. *)
let live_source ~scale ~seed ~policy ~mutator ~drop ~resume ~jobs = function
  | Generate -> (generate_feed ~scale ~seed ~mutator ~drop, [])
  | Fetch cfg -> fetch_feed ~scale ~seed ~policy ~mutator ~drop ~resume ~jobs cfg

(* --- the one sharded driver -------------------------------------------

   Every run maps one task per shard over [0, scale): jobs=1 is a
   single shard over the whole range.  Each shard folds its range into
   its own aggregate behind the one fault [record], which shares the
   stop flag and error budget across shards; the aggregates merge in
   shard order, so a completed run is byte-identical for every [jobs].

   [body ~lo ~hi ~start part ~record ~each] is a shard's source, step
   and sink: it processes the indices of [[start, hi)] into [part],
   wrapping each in [each] (stop check, then cursor save), and returns
   its sink's output.  A shard that stopped on an abort returns none.

   With [cursor = Some file] each shard resumes from and checkpoints
   [(lo, part)] to [file.shard<k>]. *)

let drive ~scale ~seed ~policy ~jobs ~cursor ~resume body =
  prewarm policy;
  let crashes_before = snapshot_crashes () in
  let ranges = Par.shards ~jobs scale in
  let cursor_of shard =
    Option.map (fun file -> Faults.Checkpoint.shard_file file shard) cursor
  in
  (* Cursors load before any shard starts, so the faults they already
     hold count toward the error budget.  A cursor is reused only when
     its saved range still matches its shard's: after a --jobs change
     the boundaries move, and a stale cursor would double- or
     skip-process indices. *)
  let resumed =
    Array.of_list
      (List.mapi
         (fun shard (lo, hi) ->
           match
             if resume then Option.bind (cursor_of shard) Faults.Checkpoint.load
             else None
           with
           | Some (c : (int * t) Faults.Checkpoint.t)
             when c.Faults.Checkpoint.scale = scale
                  && c.Faults.Checkpoint.seed = seed
                  && fst c.Faults.Checkpoint.state = lo
                  && c.Faults.Checkpoint.next_index >= lo
                  && c.Faults.Checkpoint.next_index <= hi ->
               let part = snd c.Faults.Checkpoint.state in
               if c.Faults.Checkpoint.next_index > lo then
                 part.faults.resumed_at <- c.Faults.Checkpoint.next_index;
               (part, c.Faults.Checkpoint.next_index)
           | _ -> (fresh ~scale ~seed, lo))
         ranges)
  in
  (* fail-fast / max-errors are run-global: the first shard to hit the
     budget publishes the reason and every shard winds down at its next
     index.  Which indices the other shards reached first is
     timing-dependent, so an aborted run is not byte-reproducible across
     jobs (a completed one is). *)
  let stop_flag = Atomic.make false in
  let errors =
    Atomic.make
      (Array.fold_left (fun n ((p : t), _) -> n + p.faults.fault_errors) 0 resumed)
  in
  (* The budget's last fault: the first one of this run under
     fail-fast, else the one that reaches max-errors (or the first, when
     resumed cursors already hold that many).  At --jobs 1 nothing
     follows it; at higher jobs another shard can take a fault before it
     sees the stop, and that fault must not be recorded. *)
  let last =
    let first = Atomic.get errors + 1 in
    match policy.Faults.Policy.max_errors with
    | _ when policy.Faults.Policy.fail_fast -> Some first
    | Some m -> Some (max m first)
    | None -> None
  in
  let abort_reason = Atomic.make None in
  let abort reason =
    ignore (Atomic.compare_and_set abort_reason None (Some reason));
    Atomic.set stop_flag true;
    raise Shard_stop
  in
  let every = max 1 policy.Faults.Policy.checkpoint_every in
  let run_shard ~shard ~lo ~hi =
    let part, start = resumed.(shard) in
    let quarantine =
      Option.map
        (fun dir -> Faults.Quarantine.open_shard ~dir ~run_seed:seed ~shard)
        policy.Faults.Policy.quarantine_dir
    in
    let record ~index ~der error =
      let seen = 1 + Atomic.fetch_and_add errors 1 in
      (match last with Some l when seen > l -> raise Shard_stop | _ -> ());
      let f = part.faults in
      f.fault_errors <- f.fault_errors + 1;
      bump f.by_class (Faults.Error.class_name error);
      Faults.Error.observe error;
      trace_fault ~index error;
      (match quarantine with
      | Some q ->
          Faults.Quarantine.record q ~index ~error ~der;
          f.quarantined <- f.quarantined + 1
      | None -> ());
      if policy.Faults.Policy.fail_fast then
        abort (Printf.sprintf "fail-fast: %s" (Faults.Error.to_string error));
      match policy.Faults.Policy.max_errors with
      | Some m when seen >= m ->
          abort (Printf.sprintf "max-errors: %d errors reached the limit" m)
      | _ -> ()
    in
    let cursor = cursor_of shard in
    let save next_index =
      Option.iter
        (fun file ->
          Faults.Checkpoint.save file
            { Faults.Checkpoint.scale; seed; next_index; state = (lo, part) };
          part.faults.checkpoints_saved <- part.faults.checkpoints_saved + 1)
        cursor
    in
    let each index f =
      if Atomic.get stop_flag then raise Shard_stop;
      f ();
      if (index + 1) mod every = 0 then save (index + 1)
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Faults.Quarantine.close quarantine)
      (fun () ->
        match body ~lo ~hi ~start part ~record ~each with
        | out ->
            save hi;
            (part, Some out)
        | exception Shard_stop -> (part, None))
  in
  let results =
    Obs.Span.with_ "pipeline" (fun () -> Par.map_shards ~jobs ~scale run_shard)
  in
  (* Always fold shard sidecars into the main quarantine file, so an
     aborted run still keeps every record written so far. *)
  Option.iter
    (fun dir ->
      ignore
        (Faults.Quarantine.merge_shards ~dir ~run_seed:seed
           ~shards:(List.length ranges)))
    policy.Faults.Policy.quarantine_dir;
  let t = fresh ~scale ~seed in
  List.iter (fun (part, _) -> merge_into t part) results;
  t.faults.resumed_at <-
    List.fold_left
      (fun acc ((part : t), _) ->
        let r = part.faults.resumed_at in
        if r = 0 then acc else if acc = 0 then r else min acc r)
      0 results;
  t.faults.aborted <- Atomic.get abort_reason;
  t.faults.lint_crashes <- snapshot_crashes () - crashes_before;
  t.faults.degraded <- Lint.Registry.degraded ();
  (t, List.filter_map snd results)

(* --- steps and sinks ---------------------------------------------------- *)

(* The step over [feed]'s deliveries in [[start, stop)]: an entry goes
   to [got]; bytes the source already failed to decode go straight to
   [fault]. *)
let deliveries (feed : feed) ~start ~stop ~each ~fault got =
  feed ~start ~stop (fun index item ->
      each index (fun () ->
          match item () with
          | Ctlog.Fetch.Got (index, e) -> got index e
          | Ctlog.Fetch.Undecodable (index, der, error) -> fault ~index ~der error))

(* The live step: every entry goes through {!analyze}, folding into
   [part] when given. *)
let live feed ~start ~stop ~each ?part policy ~fault ~sink =
  deliveries feed ~start ~stop ~each ~fault (analyze ?part policy ~fault ~sink)

(* The storeless body: the shard's live deliveries feed the aggregate
   alone. *)
let stream feed policy ~lo:_ ~hi ~start part ~record ~each =
  live feed ~start ~stop:hi ~each ~part policy ~fault:record
    ~sink:(fun ~der:_ _ -> ())

(* The store step over a shard's share of [pieces].  Stored records in
   range replay ([recompute = None]) or gain the missing lints, which
   rewrites their span's rows column; gaps stream from [feed] and land
   as new certs + rows pairs.  With [indexing] every row also feeds the
   shard's index accumulator.  Returns the pairs written and the
   accumulator. *)
let land_store db ~lints ~pieces ~feed ~recompute ~indexing policy ~lo ~hi
    ~start:_ part ~record ~each =
  let acc = fresh_acc () in
  let index_row row = if indexing then add_index_entries acc row in
  (* A writer that fails mid-span is closed unsealed; recovery adopts
     or drops it on the next run. *)
  let span w ~finish ~close f =
    match f w with
    | () -> finish w
    | exception e ->
        close w;
        raise e
  in
  let replay pr ~refresh k =
    Store.Db.iter_pair db pr (fun recd rowstr ->
        let i = Store.Db.index_of_record recd in
        if i >= lo && i < hi then
          each i (fun () -> k (replay_stored part ~record ~refresh recd rowstr) rowstr))
  in
  let written = ref [] in
  List.iter
    (function
      | Stored ((c, _) as pr) when c.Store.Manifest.hi > lo && c.Store.Manifest.lo < hi
        -> (
          match recompute with
          | None ->
              replay pr ~refresh:(fun ~der:_ row -> row) (fun row _ ->
                  Option.iter index_row row)
          | Some refresh ->
              let rw =
                Store.Db.start_rows_span db ~lints ~lo:c.Store.Manifest.lo
                  ~hi:c.Store.Manifest.hi
              in
              let rows =
                span rw ~finish:Store.Db.finish_rows_span
                  ~close:Store.Db.close_rows_noerr (fun rw ->
                    replay pr ~refresh (fun row rowstr ->
                        match row with
                        | Some row ->
                            index_row row;
                            Store.Db.append_row rw (encode_row row)
                        | None -> Store.Db.append_row rw rowstr))
              in
              written := (c, rows) :: !written)
      | Stored _ -> ()
      | Gap (glo, ghi) ->
          let glo = max glo lo and ghi = min ghi hi in
          if glo < ghi then begin
            let pw = Store.Db.start_span db ~lints ~lo:glo ~hi:ghi in
            let append (recd, row) = Store.Db.append pw recd ~row in
            let fault ~index ~der error =
              append (fault_pair ~index ~der error);
              record ~index ~der error
            in
            let sink ~der row =
              index_row row;
              append (cert_pair ~der row)
            in
            let pair =
              span pw ~finish:Store.Db.finish_span ~close:Store.Db.close_noerr
                (fun _ ->
                  live feed ~start:glo ~stop:ghi ~each ~part policy ~fault ~sink)
            in
            written := pair :: !written
          end)
    pieces;
  (List.rev !written, acc)

(* The one manifest assembly, for store builds and daemon commits. *)
let commit_manifest db ~state ~lints ~indexes ~meta pairs =
  let pairs =
    List.sort
      (fun ((a : Store.Manifest.seg), _) ((b : Store.Manifest.seg), _) ->
        compare a.Store.Manifest.lo b.Store.Manifest.lo)
      pairs
  in
  let segments = List.map fst pairs and rows = List.map snd pairs in
  let man : Store.Manifest.t = { state; lints; segments; rows; indexes; meta = [] } in
  Store.Db.commit db { man with Store.Manifest.meta = meta man }

(* A store build's commit: written pairs replace the stored pairs they
   share a certs segment with, and the indexes built from every shard's
   rows (in shard order) are sealed beside them as one base delta. *)
let commit_store db ~lints ~pieces ~coverage results =
  let written = List.concat_map fst results in
  let kept =
    List.filter_map
      (function
        | Stored ((c, _) as pr) when not (List.mem_assoc c written) -> Some pr
        | _ -> None)
      pieces
  in
  let indexes =
    Store.Db.save_indexes ~base:true db (merge_accs (List.map snd results))
  in
  let coverage =
    if coverage = [] then [] else [ ("coverage", encode_coverage coverage) ]
  in
  commit_manifest db ~state:`Complete ~lints ~indexes
    ~meta:(fun man -> ("content", content_address man) :: coverage)
    (kept @ written)

(* A store that is not complete is recovered, then built shard by
   shard: stored spans replay and gaps land from the live source.  A
   complete store replays as one shard, since its spans need not align
   with shard ranges; it commits again only when its lint set changed
   and the rows were recomputed. *)
let run_store ~scale ~seed ~policy ~jobs ~dir ~fingerprint live_source =
  let lints = lints_signature () in
  let db = Store.Db.create ~dir ~scale ~seed ~fingerprint in
  Store.Db.prewarm ();
  let stored_lints = (Store.Db.manifest db).Store.Manifest.lints in
  let complete = Store.Db.complete db in
  let warm = complete && stored_lints = lints in
  let feed, coverage =
    if complete then ((fun ~start:_ ~stop:_ _ -> ()), stored_coverage db)
    else begin
      Store.Db.recover db ~lints;
      live_source ()
    end
  in
  let recompute =
    if complete && not warm then Some (recompute_lints ~stored:stored_lints)
    else None
  in
  let pieces = build_pieces db ~scale in
  let t, results =
    drive ~scale ~seed ~policy
      ~jobs:(if complete then 1 else jobs)
      ~cursor:None ~resume:false
      (land_store db ~lints ~pieces ~feed ~recompute ~indexing:(not warm) policy)
  in
  t.coverage <- coverage;
  if (not warm) && t.faults.aborted = None then
    commit_store db ~lints ~pieces ~coverage results;
  t

let run ?(scale = Ctlog.Dataset.default_scale) ?(seed = 1)
    ?(policy = Faults.Policy.default) ?mutator ?(drop = false) ?(resume = false)
    ?(jobs = 1) ?(source = Generate) ?store () =
  let live_source () =
    live_source ~scale ~seed ~policy ~mutator ~drop ~resume ~jobs source
  in
  match store with
  | Some dir ->
      run_store ~scale ~seed ~policy ~jobs ~dir
        ~fingerprint:(store_fingerprint ~mutator ~drop ~source)
        live_source
  | None ->
      let feed, coverage = live_source () in
      (* Only a generated corpus keeps shard cursors: a fetch resumes
         through its per-log transport cursors instead. *)
      let cursor =
        match source with
        | Generate -> policy.Faults.Policy.checkpoint_file
        | Fetch _ -> None
      in
      let t, _ =
        drive ~scale ~seed ~policy ~jobs ~cursor ~resume (stream feed policy)
      in
      t.coverage <- coverage;
      t

(* Selection without analysis: each shard walks the live source over
   its range and keeps [f e] for every entry [e] that passes [keep],
   stopping once it has kept [count]; an undecodable delivery goes to
   the fault boundary.  Nothing is linted or aggregated. *)
exception Kept_enough

let collect ?(seed = 1) ?(policy = Faults.Policy.default) ?mutator
    ?(drop = false) ?(resume = false) ?(jobs = 1) ?(source = Generate) ~scale
    ~count ~keep f =
  let feed, coverage =
    live_source ~scale ~seed ~policy ~mutator ~drop ~resume ~jobs source
  in
  let body ~lo:_ ~hi ~start _part ~record ~each =
    let kept = ref [] and n = ref 0 in
    (try
       deliveries feed ~start ~stop:hi ~each ~fault:record (fun _ e ->
           if keep e then begin
             kept := f e :: !kept;
             incr n;
             if !n >= count then raise_notrace Kept_enough
           end)
     with Kept_enough -> ());
    List.rev !kept
  in
  let t, parts =
    drive ~scale ~seed ~policy ~jobs ~cursor:None ~resume:false body
  in
  t.coverage <- coverage;
  (t, List.filteri (fun i _ -> i < count) (List.concat parts))

(* The monitor daemon's tick: its deliveries are the feed, {!live} the
   step, and each shard's sink stages what the store lands per item.
   Nothing folds into an aggregate: the daemon reads only the fault
   ledger. *)
let ingest ~scale ~seed ~policy ~jobs deliveries =
  let feed = fetched_feed deliveries in
  let body ~lo:_ ~hi ~start _part ~record ~each =
    let staged = ref [] in
    let stage (recd, rowstr) row = staged := (recd, rowstr, row) :: !staged in
    let fault ~index ~der error =
      stage (fault_pair ~index ~der error) None;
      record ~index ~der error
    in
    let sink ~der row = stage (cert_pair ~der row) (Some row) in
    live feed ~start ~stop:hi ~each policy ~fault ~sink;
    List.rev !staged
  in
  let t, parts = drive ~scale ~seed ~policy ~jobs ~cursor:None ~resume:false body in
  (t, List.concat parts)

let year_range t =
  Hashtbl.fold (fun y _ (lo, hi) -> (min lo y, max hi y)) t.years (9999, 0)

let get_year t y = year_tbl t y

let validity_cdf t cls =
  match Hashtbl.find_opt t.validity cls with
  | None -> []
  | Some l ->
      let sorted = List.sort compare !l in
      let n = List.length sorted in
      if n = 0 then []
      else begin
        let points = ref [] and seen = ref 0 in
        List.iter
          (fun d ->
            incr seen;
            points := (d, float_of_int !seen /. float_of_int n) :: !points)
          sorted;
        (* Deduplicate by keeping the last fraction per day value. *)
        let dedup =
          List.fold_left
            (fun acc (d, f) ->
              match acc with
              | (d', _) :: rest when d' = d -> (d, f) :: rest
              | _ -> (d, f) :: acc)
            [] (List.rev !points)
        in
        List.rev dedup
      end

(* Both orderings break count ties by name: Hashtbl fold order depends
   on insertion history, which differs with the shard partition, and
   report output must not. *)
let top_lints t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.lints []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare b a with 0 -> String.compare ka kb | c -> c)

let top_issuers_by_nc t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.issuers []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare b.nc_count a.nc_count with
         | 0 -> String.compare ka kb
         | c -> c)
