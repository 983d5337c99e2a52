exception Store_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Store_error s)) fmt

let reads =
  Obs.Registry.counter ~help:"Records read back from the store" "unicert_store_reads_total"

let corruptions =
  Obs.Registry.counter ~help:"Corruptions detected in store files"
    "unicert_store_corruptions_detected_total"

let repairs =
  Obs.Registry.counter ~help:"Store repairs applied (truncate/quarantine/delete)"
    "unicert_store_repairs_total"

(* --- record encoding --- *)

type record =
  | Cert of { index : int; der : string }
  | Fault of { index : int; class_ : string; detail : string; der : string }

let index_of_record = function Cert { index; _ } | Fault { index; _ } -> index

let u32be n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.unsafe_to_string b

let u16be n = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xFF))

let ru32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let ru16 s pos = (Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1]

let encode_record = function
  | Cert { index; der } -> "C" ^ u32be index ^ der
  | Fault { index; class_; detail; der } ->
      "X" ^ u32be index ^ u16be (String.length class_) ^ class_
      ^ u32be (String.length detail) ^ detail ^ der

(* Decode the record held in [len] bytes of [s] at [pos] — a segment
   file read whole — copying each field out once. *)
let decode_record_at s ~pos ~len =
  let stop = pos + len in
  let short () = Error "short record" in
  if len < 1 then short ()
  else
    match s.[pos] with
    | 'C' ->
        if len < 5 then short ()
        else Ok (Cert { index = ru32 s (pos + 1); der = String.sub s (pos + 5) (len - 5) })
    | 'X' ->
        if len < 7 then short ()
        else
          let index = ru32 s (pos + 1) in
          let cp = pos + 7 in
          let clen = ru16 s (pos + 5) in
          if cp + clen + 4 > stop then short ()
          else
            let dp = cp + clen + 4 in
            let dlen = ru32 s (cp + clen) in
            if dp + dlen > stop then short ()
            else
              Ok
                (Fault
                   {
                     index;
                     class_ = String.sub s cp clen;
                     detail = String.sub s dp dlen;
                     der = String.sub s (dp + dlen) (stop - dp - dlen);
                   })
    | c -> Error (Printf.sprintf "unknown record kind %C" c)

(* --- file naming --- *)

let fp8_of_lints lints = String.sub (Ucrypto.Sha256.hex lints) 0 8
let cert_file ~lo ~hi = Printf.sprintf "certs-%d-%d.seg" lo hi
let rows_file ~fp8 ~lo ~hi = Printf.sprintf "rows-%s-%d-%d.seg" fp8 lo hi

let parse_cert_file name =
  try Scanf.sscanf name "certs-%d-%d.seg%!" (fun lo hi -> Some (lo, hi)) with _ -> None

let parse_rows_file name =
  try
    Scanf.sscanf name "rows-%s@-%d-%d.seg%!" (fun fp8 lo hi ->
        if String.length fp8 = 8 then Some (fp8, lo, hi) else None)
  with _ -> None

let quarantine_file = "store-quarantine.jsonl"

(* --- store handle --- *)

type t = { dir : string; id_ : Manifest.id; mutable man : Manifest.t }

let dir t = t.dir
let id t = t.id_
let manifest t = t.man

let empty_manifest lints : Manifest.t =
  { state = `Building; lints; segments = []; rows = []; indexes = []; meta = [] }

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else (
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let has_store_files dir =
  Sys.file_exists dir
  && Array.exists
       (fun f ->
         parse_cert_file f <> None || parse_rows_file f <> None || f = Manifest.file)
       (Sys.readdir dir)

let create ~dir ~scale ~seed ~fingerprint =
  mkdir_p dir;
  let want : Manifest.id = { scale; seed; fingerprint } in
  (match Manifest.load_id ~dir with
  | Error e -> fail "store %s: identity unreadable (%s); run `unicert-store fsck`" dir e
  | Ok (Some have) ->
      if have <> want then
        fail
          "store %s holds a different corpus (scale %d seed %d, wanted scale %d seed %d%s)"
          dir have.scale have.seed scale seed
          (if have.fingerprint <> fingerprint then "; source fingerprint differs" else "")
  | Ok None ->
      if has_store_files dir then
        fail "store %s: data present but store.id missing; run `unicert-store fsck`" dir;
      Manifest.save_id ~dir want);
  let man =
    match Manifest.load ~dir with
    | Ok (Some m) -> m
    | Ok None -> empty_manifest ""
    | Error e -> fail "store %s: manifest unreadable (%s); run `unicert-store fsck --repair`" dir e
  in
  { dir; id_ = want; man }

let open_ro ~dir =
  if not (Sys.file_exists dir) then fail "store %s: no such directory" dir;
  match Manifest.load_id ~dir with
  | Error e -> fail "store %s: identity unreadable (%s)" dir e
  | Ok None -> fail "store %s: not a store (store.id missing)" dir
  | Ok (Some id_) -> (
      match Manifest.load ~dir with
      | Error e -> fail "store %s: manifest unreadable (%s); run `unicert-store fsck --repair`" dir e
      | Ok None ->
          (* A valid identity with no committed manifest is an in-flight
             build caught before its first commit (fsck calls it
             usable).  Readers agree: the committed prefix is simply
             empty — any unsealed tail segments stay invisible until a
             writer commits them. *)
          { dir; id_; man = empty_manifest "" }
      | Ok (Some man) -> { dir; id_; man })

let sorted_segments (man : Manifest.t) =
  List.sort (fun (a : Manifest.seg) b -> compare a.lo b.lo) man.segments

let complete t =
  t.man.state = `Complete
  &&
  let rec tiles at = function
    | [] -> at = t.id_.scale
    | (s : Manifest.seg) :: rest -> s.lo = at && tiles s.hi rest
  in
  tiles 0 (sorted_segments t.man)

(* Rows columns keyed by span; the first listed wins a duplicate. *)
let rows_by_span (rows : Manifest.seg list) =
  let h = Hashtbl.create (List.length rows) in
  List.iter
    (fun (r : Manifest.seg) ->
      if not (Hashtbl.mem h (r.lo, r.hi)) then Hashtbl.add h (r.lo, r.hi) r)
    rows;
  h

let spans t =
  let rows = rows_by_span t.man.rows in
  sorted_segments t.man
  |> List.map (fun (c : Manifest.seg) ->
         match Hashtbl.find_opt rows (c.lo, c.hi) with
         | Some r -> (c, r)
         | None -> fail "store %s: span [%d,%d) has no rows column" t.dir c.lo c.hi)

let gaps t ~scale =
  let rec walk at acc = function
    | [] -> List.rev (if at < scale then (at, scale) :: acc else acc)
    | (s : Manifest.seg) :: rest ->
        let acc = if s.lo > at then (at, s.lo) :: acc else acc in
        walk (max at s.hi) acc rest
  in
  walk 0 [] (sorted_segments t.man)

(* --- quarantine sidecar (JSONL, same convention as Faults.Quarantine) --- *)

let note_quarantine dir ~file ~reason ~detail =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644
      (Filename.concat dir quarantine_file)
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc {|{"file":%s,"reason":%s,"detail":%s}|} (Obs.Jsonv.escape file)
        (Obs.Jsonv.escape reason) (Obs.Jsonv.escape detail);
      output_char oc '\n')

let quarantine_seg dir ~file ~reason ~detail =
  Obs.Counter.inc corruptions;
  Obs.Counter.inc repairs;
  Obs.Trace.instant ~cat:"store" ~args:[ ("file", Str file); ("reason", Str reason) ]
    "store.quarantine";
  note_quarantine dir ~file ~reason ~detail;
  let path = Filename.concat dir file in
  if Sys.file_exists path then Sys.rename path (path ^ ".quarantined")

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* --- lockstep span writers --- *)

let sync_interval = 4096

type pair_writer = {
  pt : t;
  plo : int;
  phi : int;
  cfile : string;
  rfile : string;
  cw : Segment.writer;
  rw : Segment.writer;
  mutable pn : int;
}

let start_span t ~lints ~lo ~hi =
  let cfile = cert_file ~lo ~hi and rfile = rows_file ~fp8:(fp8_of_lints lints) ~lo ~hi in
  {
    pt = t;
    plo = lo;
    phi = hi;
    cfile;
    rfile;
    cw = Segment.create (Filename.concat t.dir cfile);
    rw = Segment.create (Filename.concat t.dir rfile);
    pn = 0;
  }

let append pw record ~row =
  Segment.append pw.cw (encode_record record);
  Segment.append pw.rw row;
  pw.pn <- pw.pn + 1;
  if pw.pn mod sync_interval = 0 then (
    Segment.sync pw.cw;
    Segment.sync pw.rw)

let finish_span pw =
  let cseal = Segment.seal pw.cw in
  let rseal = Segment.seal pw.rw in
  Segment.close pw.cw;
  Segment.close pw.rw;
  ( ({ file = pw.cfile; lo = pw.plo; hi = pw.phi; records = pw.pn; seal = cseal }
      : Manifest.seg),
    ({ file = pw.rfile; lo = pw.plo; hi = pw.phi; records = pw.pn; seal = rseal }
      : Manifest.seg) )

let close_noerr pw =
  (try Segment.close pw.cw with _ -> ());
  try Segment.close pw.rw with _ -> ()

type rows_writer = { rt : string; rlo : int; rhi : int; rfile2 : string; w : Segment.writer; mutable rn : int }

let start_rows_span t ~lints ~lo ~hi =
  let file = rows_file ~fp8:(fp8_of_lints lints) ~lo ~hi in
  (* A same-fp8 rows file may already exist when only indexes changed;
     the replacement is written under a distinct suffix-free name only
     if free, otherwise reuse forces ".new". *)
  let file = if Sys.file_exists (Filename.concat t.dir file) then file ^ ".new" else file in
  { rt = t.dir; rlo = lo; rhi = hi; rfile2 = file; w = Segment.create (Filename.concat t.dir file); rn = 0 }

let append_row rw row =
  Segment.append rw.w row;
  rw.rn <- rw.rn + 1;
  if rw.rn mod sync_interval = 0 then Segment.sync rw.w

let finish_rows_span rw =
  let seal = Segment.seal rw.w in
  Segment.close rw.w;
  ({ file = rw.rfile2; lo = rw.rlo; hi = rw.rhi; records = rw.rn; seal } : Manifest.seg)

let close_rows_noerr rw = try Segment.close rw.w with _ -> ()

(* --- commit: publish a manifest, then drop unreferenced files --- *)

(* Every data file [man] names: segments, rows columns, indexes. *)
let referenced_files (man : Manifest.t) =
  let h = Hashtbl.create 64 in
  let add f = Hashtbl.replace h f () in
  List.iter (fun (s : Manifest.seg) -> add s.file) man.segments;
  List.iter (fun (s : Manifest.seg) -> add s.file) man.rows;
  List.iter (fun (_, f, _) -> add f) man.indexes;
  h

let commit t man =
  Manifest.save ~dir:t.dir man;
  t.man <- man;
  let referenced = referenced_files man in
  List.iter
    (fun f -> Hashtbl.replace referenced f ())
    [ Manifest.id_file; Manifest.file; quarantine_file ];
  Array.iter
    (fun f ->
      let stale_data = parse_cert_file f <> None || parse_rows_file f <> None in
      let stale_rows_tmp = Filename.check_suffix f ".seg.new" in
      let stale_idx = Filename.check_suffix f ".idx" in
      if (stale_data || stale_idx || stale_rows_tmp) && not (Hashtbl.mem referenced f) then
        remove_if_exists (Filename.concat t.dir f))
    (Sys.readdir t.dir)

(* --- reading --- *)

let scan_pair t (c : Manifest.seg) (r : Manifest.seg) =
  let check (s : Manifest.seg) =
    match Segment.scan (Filename.concat t.dir s.file) with
    | Error e -> fail "store %s: %s: %s" t.dir s.file e
    | Ok sc ->
        if (not sc.sealed) || sc.problem <> None || sc.count <> s.records
           || sc.seal_hex <> s.seal
        then (
          Obs.Counter.inc corruptions;
          Obs.Trace.instant ~cat:"store" ~args:[ ("file", Str s.file) ] "store.corrupt";
          fail "store %s: %s is damaged (%s); run `unicert-store fsck --repair`" t.dir s.file
            (match sc.problem with
            | Some p -> Segment.describe_problem p
            | None -> "seal or count mismatch"))
        else sc
  in
  let csc = check c and rsc = check r in
  if csc.count <> rsc.count then
    fail "store %s: %s and %s hold different record counts" t.dir c.file r.file;
  (csc, rsc)

(* Records and rows are copied once each, straight from the two file
   strings. *)
let iter_pair t ((c : Manifest.seg), r) f =
  Obs.Trace.span ~cat:"store" "store.read" (fun () ->
      let (csc : Segment.scan), (rsc : Segment.scan) = scan_pair t c r in
      for k = 0 to csc.count - 1 do
        let pos = csc.starts.(k) in
        match decode_record_at csc.data ~pos ~len:(csc.ends.(k) - pos) with
        | Error e -> fail "store %s: %s: undecodable record (%s)" t.dir c.file e
        | Ok record ->
            Obs.Counter.inc reads;
            f record (Segment.payload rsc k)
      done)

let iter_pairs t f = List.iter (fun pr -> iter_pair t pr f) (spans t)

let load_index t name =
  match List.find_opt (fun (n, _, _) -> n = name) t.man.indexes with
  | None -> Error (Printf.sprintf "no %S index (store incomplete or never indexed)" name)
  | Some (_, file, _) -> Index.load ~dir:t.dir ~file

let meta t k = List.assoc_opt k t.man.meta

(* --- recovery --- *)

(* Normalize one unsealed (or damaged) cert/rows pair found on disk.
   Returns the adopted manifest descriptors, or None when the pair was
   quarantined or deleted. *)
let recover_pair ~warn dir ~fp8 ~lo ~hi ~cfile ~rfile =
  let cpath = Filename.concat dir cfile and rpath = Filename.concat dir rfile in
  match (Segment.scan cpath, Segment.scan rpath) with
  | Error e, _ | _, Error e ->
      warn (Printf.sprintf "store: cannot read span [%d,%d): %s" lo hi e);
      None
  | Ok csc, Ok rsc -> (
      let corrupt (p : Segment.problem) =
        match p with
        | Segment.Torn_tail _ -> false
        | Bad_header | Bad_frame _ | Bad_crc _ | Bad_seal | Trailing _ -> true
      in
      let is_corrupt sc =
        match sc.Segment.problem with Some p -> corrupt p | None -> false
      in
      if is_corrupt csc || is_corrupt rsc then (
        let describe sc =
          match sc.Segment.problem with
          | Some p -> Segment.describe_problem p
          | None -> "lockstep mate corrupt"
        in
        warn (Printf.sprintf "store: quarantining corrupt span [%d,%d)" lo hi);
        quarantine_seg dir ~file:cfile ~reason:(if is_corrupt csc then Segment.problem_name (Option.get csc.problem) else "lockstep_mate") ~detail:(describe csc);
        quarantine_seg dir ~file:rfile ~reason:(if is_corrupt rsc then Segment.problem_name (Option.get rsc.problem) else "lockstep_mate") ~detail:(describe rsc);
        None)
      else if csc.sealed && rsc.sealed && csc.count = rsc.count then
        (* Intact committed span: adopt as-is. *)
        Some
          ( ({ file = cfile; lo; hi; records = csc.count; seal = csc.seal_hex } : Manifest.seg),
            ({ file = rfile; lo; hi; records = rsc.count; seal = rsc.seal_hex } : Manifest.seg) )
      else
        (* Crash artifact: align both files to the common intact record
           prefix, then seal the pair at its actual coverage. *)
        let n = min csc.count rsc.count in
        if n = 0 then (
          warn (Printf.sprintf "store: dropping empty crash remnant for span [%d,%d)" lo hi);
          Obs.Counter.inc repairs;
          remove_if_exists cpath;
          remove_if_exists rpath;
          None)
        else
          let pos = csc.starts.(n - 1) in
          match decode_record_at csc.data ~pos ~len:(csc.ends.(n - 1) - pos) with
          | Error e ->
              warn (Printf.sprintf "store: span [%d,%d) undecodable (%s); quarantining" lo hi e);
              quarantine_seg dir ~file:cfile ~reason:"undecodable_record" ~detail:e;
              quarantine_seg dir ~file:rfile ~reason:"lockstep_mate" ~detail:e;
              None
          | Ok last ->
              let hi' = index_of_record last + 1 in
              Obs.Counter.inc repairs;
              Obs.Trace.instant ~cat:"store"
                ~args:[ ("lo", Int lo); ("hi", Int hi'); ("records", Int n) ]
                "store.adopt";
              warn
                (Printf.sprintf "store: adopting partial span [%d,%d) as [%d,%d) (%d records)"
                   lo hi lo hi' n);
              Segment.truncate cpath csc.ends.(n - 1);
              Segment.truncate rpath rsc.ends.(n - 1);
              let reseal path =
                let w = Segment.reopen path in
                let seal = Segment.seal w in
                Segment.close w;
                seal
              in
              let cseal = reseal cpath and rseal = reseal rpath in
              let cfile' = cert_file ~lo ~hi:hi'
              and rfile' = rows_file ~fp8 ~lo ~hi:hi' in
              if
                hi' <> hi
                && (Sys.file_exists (Filename.concat dir cfile')
                   || Sys.file_exists (Filename.concat dir rfile'))
              then (
                (* Another pair already owns the shrunken span name —
                   this remnant is redundant. *)
                remove_if_exists cpath;
                remove_if_exists rpath;
                None)
              else (
                if hi' <> hi then (
                  Sys.rename cpath (Filename.concat dir cfile');
                  Sys.rename rpath (Filename.concat dir rfile'));
                Some
                  ( ({ file = cfile'; lo; hi = hi'; records = n; seal = cseal } : Manifest.seg),
                    ({ file = rfile'; lo; hi = hi'; records = n; seal = rseal } : Manifest.seg) )))

let recover ?(warn = fun _ -> ()) t ~lints =
  Obs.Trace.span ~cat:"store" "store.recover" (fun () ->
      let fp8 = fp8_of_lints lints in
      let files = Sys.readdir t.dir in
      (* Stray .tmp files are interrupted atomic commits. *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".tmp" then (
            warn (Printf.sprintf "store: removing interrupted commit %s" f);
            Obs.Counter.inc repairs;
            remove_if_exists (Filename.concat t.dir f)))
        files;
      let certs = Array.to_list files |> List.filter_map (fun f ->
          Option.map (fun (lo, hi) -> (lo, hi, f)) (parse_cert_file f))
      in
      let rows = Array.to_list files |> List.filter_map (fun f ->
          Option.map (fun (fp, lo, hi) -> (fp, lo, hi, f)) (parse_rows_file f))
      in
      (* Current-lint rows columns by span; the first listed wins. *)
      let current = Hashtbl.create 64 in
      List.iter
        (fun (fp, lo, hi, f) ->
          if fp = fp8 && not (Hashtbl.mem current (lo, hi)) then Hashtbl.add current (lo, hi) f)
        rows;
      let pairs, unpaired_certs =
        List.partition_map
          (fun (lo, hi, cfile) ->
            match Hashtbl.find_opt current (lo, hi) with
            | Some rfile -> Left (lo, hi, cfile, rfile)
            | None -> Right cfile)
          certs
      in
      let paired_rows = Hashtbl.create 64 in
      List.iter (fun (_, _, _, r) -> Hashtbl.replace paired_rows r ()) pairs;
      (* Cert segments without a current-lint rows mate (and vice versa)
         cannot be absorbed; the corpus regenerates deterministically,
         so drop them rather than carry dead weight. *)
      List.iter
        (fun f ->
          warn (Printf.sprintf "store: dropping unpaired segment %s" f);
          Obs.Counter.inc repairs;
          remove_if_exists (Filename.concat t.dir f))
        (unpaired_certs
        @ List.filter_map
            (fun (_, _, _, f) -> if Hashtbl.mem paired_rows f then None else Some f)
            rows);
      let adopted =
        List.filter_map
          (fun (lo, hi, cfile, rfile) -> recover_pair ~warn t.dir ~fp8 ~lo ~hi ~cfile ~rfile)
          pairs
        |> List.sort (fun ((a : Manifest.seg), _) (b, _) -> compare (a.lo, a.hi) (b.lo, b.hi))
      in
      (* Spans from runs with different shard layouts can overlap after
         partial adoption; keep the first, drop the rest. *)
      let adopted =
        List.fold_left
          (fun (keep, covered) ((c : Manifest.seg), (r : Manifest.seg)) ->
            if c.lo >= covered then (((c, r) :: keep, c.hi))
            else (
              warn (Printf.sprintf "store: dropping overlapping span [%d,%d)" c.lo c.hi);
              Obs.Counter.inc repairs;
              remove_if_exists (Filename.concat t.dir c.file);
              remove_if_exists (Filename.concat t.dir r.file);
              (keep, covered)))
          ([], 0) adopted
        |> fst |> List.rev
      in
      let man =
        {
          (empty_manifest lints) with
          segments = List.map fst adopted;
          rows = List.map snd adopted;
        }
      in
      commit t man)

(* --- fsck --- *)

type issue = { file : string; problem : string; detail : string; repair : string }

type fsck_report = {
  issues : issue list;
  spans_ok : int;
  spans_expected : int;
  store_state : [ `Complete | `Building | `Absent ];
  usable : bool;
  repaired : bool;
}

let fsck ?(repair = false) ~dir () =
  Obs.Trace.span ~cat:"store" "store.fsck" (fun () ->
      if not (Sys.file_exists dir) then
        { issues = []; spans_ok = 0; spans_expected = 0; store_state = `Absent; usable = false; repaired = false }
      else
        let issues = ref [] in
        let flag ~file ~problem ~detail ~repair:r =
          Obs.Counter.inc corruptions;
          Obs.Trace.instant ~cat:"store"
            ~args:[ ("file", Str file); ("problem", Str problem) ]
            "store.fsck.issue";
          issues := { file; problem; detail; repair = r } :: !issues
        in
        let id_ok =
          match Manifest.load_id ~dir with
          | Ok (Some _) -> true
          | Ok None ->
              if has_store_files dir then
                flag ~file:Manifest.id_file ~problem:"missing" ~detail:"store data without identity"
                  ~repair:"none";
              false
          | Error e ->
              flag ~file:Manifest.id_file ~problem:"corrupt" ~detail:e ~repair:"none";
              false
        in
        if (not id_ok) && not (has_store_files dir) then
          { issues = List.rev !issues; spans_ok = 0; spans_expected = 0; store_state = `Absent; usable = false; repaired = false }
        else begin
          let man, man_ok =
            match Manifest.load ~dir with
            | Ok (Some m) -> (m, true)
            | Ok None ->
                flag ~file:Manifest.file ~problem:"missing" ~detail:"" ~repair:"rebuild-manifest";
                (empty_manifest "", false)
            | Error e ->
                flag ~file:Manifest.file ~problem:"corrupt" ~detail:e ~repair:"rebuild-manifest";
                (empty_manifest "", false)
          in
          let files = Sys.readdir dir in
          Array.iter
            (fun f ->
              if Filename.check_suffix f ".tmp" then
                flag ~file:f ~problem:"stray_tmp" ~detail:"interrupted atomic commit"
                  ~repair:"delete")
            files;
          (* Verify every manifest-referenced segment pair. *)
          let good_pairs = ref [] in
          let scan_listed (s : Manifest.seg) =
            let path = Filename.concat dir s.file in
            if not (Sys.file_exists path) then (
              flag ~file:s.file ~problem:"missing" ~detail:"referenced by manifest"
                ~repair:"drop-from-manifest";
              false)
            else
              match Segment.scan path with
              | Error e ->
                  flag ~file:s.file ~problem:"unreadable" ~detail:e ~repair:"quarantine";
                  false
              | Ok sc ->
                  if sc.problem <> None then (
                    flag ~file:s.file
                      ~problem:(Segment.problem_name (Option.get sc.problem))
                      ~detail:(Segment.describe_problem (Option.get sc.problem))
                      ~repair:"quarantine";
                    false)
                  else if not sc.sealed then (
                    flag ~file:s.file ~problem:"unsealed" ~detail:"manifest references an unsealed segment"
                      ~repair:"quarantine";
                    false)
                  else if sc.count <> s.records || sc.seal_hex <> s.seal then (
                    flag ~file:s.file ~problem:"seal_mismatch"
                      ~detail:
                        (Printf.sprintf "manifest expects %d records seal %s…, file has %d seal %s…"
                           s.records
                           (String.sub s.seal 0 (min 8 (String.length s.seal)))
                           sc.count
                           (String.sub sc.seal_hex 0 8))
                      ~repair:"quarantine";
                    false)
                  else true
          in
          let rows = rows_by_span man.rows in
          List.iter
            (fun (c : Manifest.seg) ->
              match Hashtbl.find_opt rows (c.lo, c.hi) with
              | None ->
                  flag ~file:c.file ~problem:"no_rows_mate" ~detail:"span has no rows column"
                    ~repair:"drop-from-manifest"
              | Some r ->
                  let cok = scan_listed c and rok = scan_listed r in
                  if cok && rok then good_pairs := (c, r) :: !good_pairs)
            man.segments;
          (* Indexes. *)
          let good_indexes =
            List.filter
              (fun (name, file, sha) ->
                if not (Sys.file_exists (Filename.concat dir file)) then (
                  flag ~file ~problem:"missing" ~detail:(Printf.sprintf "%s index" name)
                    ~repair:"drop-from-manifest";
                  false)
                else
                  match Index.sha_hex ~dir ~file with
                  | Error e ->
                      flag ~file ~problem:"index_corrupt" ~detail:e ~repair:"drop-from-manifest";
                      false
                  | Ok h when h <> sha ->
                      flag ~file ~problem:"index_mismatch"
                        ~detail:"index seal differs from manifest" ~repair:"drop-from-manifest";
                      false
                  | Ok _ -> true)
              man.indexes
          in
          (* Unreferenced data files. *)
          let referenced = referenced_files man in
          let adoptable = ref 0 in
          Array.iter
            (fun f ->
              let is_data =
                parse_cert_file f <> None || parse_rows_file f <> None
                || Filename.check_suffix f ".idx"
                || Filename.check_suffix f ".seg.new"
              in
              if is_data && not (Hashtbl.mem referenced f) then
                if man.state = `Building && not (Filename.check_suffix f ".idx") then begin
                  (* Build in flight: unlisted segments are adoption
                     candidates for the next recovery, not errors — and
                     an intact one means salvageable data survives the
                     crash, so it counts toward usability. *)
                  if parse_cert_file f <> None then
                    match Segment.scan (Filename.concat dir f) with
                    | Ok sc when sc.problem = None -> incr adoptable
                    | Ok _ | Error _ -> ()
                end
                else
                  flag ~file:f ~problem:"stray" ~detail:"not referenced by manifest"
                    ~repair:"delete")
            files;
          let good_pairs = List.rev !good_pairs in
          let spans_ok = List.length good_pairs in
          let spans_expected = List.length man.segments in
          let coverage_lost = spans_ok < spans_expected in
          (* Usable = salvageable data survives (an intact referenced
             span or an adoptable build-in-flight segment), or nothing
             durable was ever lost: when the manifest claims no
             segments, whatever lies around — torn build-in-flight
             segments, stray tmps from an interrupted first commit —
             was never committed, and a rerun rebuilds it from scratch.
             Unusable is reserved for a store whose *committed* data is
             gone: identity unreadable, or a manifest claiming spans of
             which none survive intact. *)
          let usable =
            spans_ok > 0 || !adoptable > 0 || (id_ok && man.segments = [])
          in
          let repaired =
            repair && !issues <> []
            && begin
                 (* Apply repairs most-destructive last: deletes, then
                    quarantines, then the manifest rewrite that stops
                    referencing anything damaged. *)
                 List.iter
                   (fun i ->
                     let path = Filename.concat dir i.file in
                     match i.repair with
                     | "delete" ->
                         Obs.Counter.inc repairs;
                         remove_if_exists path
                     | "quarantine" ->
                         quarantine_seg dir ~file:i.file ~reason:i.problem ~detail:i.detail
                     | _ -> ())
                   (List.rev !issues);
                 (* Quarantine intact mates of quarantined span halves:
                    the pair lives and dies together. *)
                 let good = Hashtbl.create 64 in
                 List.iter
                   (fun ((gc : Manifest.seg), _) -> Hashtbl.replace good gc.file ())
                   good_pairs;
                 List.iter
                   (fun (c : Manifest.seg) ->
                     match Hashtbl.find_opt rows (c.lo, c.hi) with
                     | Some r ->
                         let gone s =
                           not (Sys.file_exists (Filename.concat dir s.Manifest.file))
                         in
                         if (not (Hashtbl.mem good c.file)) && (gone c <> gone r) then
                           let file = if gone c then r.file else c.file in
                           quarantine_seg dir ~file ~reason:"lockstep_mate"
                             ~detail:"mate segment was quarantined"
                     | None -> ())
                   man.segments;
                 if id_ok then (
                   let man' =
                     {
                       man with
                       state = (if coverage_lost || not man_ok then `Building else man.state);
                       segments = List.map fst good_pairs;
                       rows = List.map snd good_pairs;
                       indexes = (if coverage_lost || not man_ok then [] else good_indexes);
                       meta = (if coverage_lost || not man_ok then [] else man.meta);
                     }
                   in
                   Manifest.save ~dir man');
                 true
               end
          in
          {
            issues = List.rev !issues;
            spans_ok;
            spans_expected;
            store_state = (if man_ok then (man.state :> [ `Complete | `Building | `Absent ]) else `Building);
            usable;
            repaired;
          }
        end)

let prewarm () =
  ignore (Ucrypto.Sha256.hex "");
  Obs.Counter.inc reads;
  Obs.Counter.reset reads
