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
let pack_cert_file n = Printf.sprintf "certs-pack-%d.seg" n
let pack_rows_file ~fp8 n = Printf.sprintf "rows-%s-pack-%d.seg" fp8 n
let delta_file n = Printf.sprintf "index-%d.idx" n

let parse_cert_file name =
  try Scanf.sscanf name "certs-%d-%d.seg%!" (fun lo hi -> Some (lo, hi)) with _ -> None

let parse_rows_file name =
  try
    Scanf.sscanf name "rows-%s@-%d-%d.seg%!" (fun fp8 lo hi ->
        if String.length fp8 = 8 then Some (fp8, lo, hi) else None)
  with _ -> None

let parse_pack_rows name =
  try
    Scanf.sscanf name "rows-%s@-pack-%d.seg%!" (fun fp8 n ->
        if String.length fp8 = 8 then Some (fp8, n) else None)
  with _ -> None

(* The number of a pack's certs or rows file. *)
let parse_pack_file name =
  match (try Scanf.sscanf name "certs-pack-%d.seg%!" Option.some with _ -> None) with
  | Some n -> Some n
  | None -> Option.map snd (parse_pack_rows name)

(* The lint fingerprint a rows file (one-span or pack) was built for. *)
let rows_fp8 name =
  match parse_rows_file name with
  | Some (fp8, _, _) -> Some fp8
  | None -> Option.map fst (parse_pack_rows name)

let parse_delta_file name =
  try Scanf.sscanf name "index-%d.idx%!" Option.some with _ -> None

let is_segment_file f =
  parse_cert_file f <> None || parse_rows_file f <> None || parse_pack_file f <> None

let quarantine_file = "store-quarantine.jsonl"

(* --- store handle --- *)

type t = {
  dir : string;
  id_ : Manifest.id;
  mutable man : Manifest.t;
  mutable packs_read : (string * string * Segment.scan) list;
      (* (file, seal, scan) of the packs [iter_pair] read, newest first *)
}

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
  && Array.exists (fun f -> is_segment_file f || f = Manifest.file) (Sys.readdir dir)

(* An unreadable identity or manifest: a store of another format
   version is rebuilt, anything else goes to [fsck]. *)
let unreadable ~dir what e ~fsck =
  fail "store %s: %s unreadable (%s); %s" dir what e
    (if Manifest.foreign_version ~dir <> None then "rebuild the store from scratch"
     else "run `unicert-store " ^ fsck ^ "`")

(* A valid identity with no committed manifest is an in-flight build
   caught before its first commit (fsck calls it usable): its committed
   prefix is simply empty, and any unsealed tail segments stay
   invisible until a writer commits them. *)
let load_manifest ~dir =
  match Manifest.load ~dir with
  | Ok (Some m) -> m
  | Ok None -> empty_manifest ""
  | Error e -> unreadable ~dir "manifest" e ~fsck:"fsck --repair"

let create ~dir ~scale ~seed ~fingerprint =
  mkdir_p dir;
  let want : Manifest.id = { scale; seed; fingerprint } in
  (match Manifest.load_id ~dir with
  | Error e -> unreadable ~dir "identity" e ~fsck:"fsck"
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
  { dir; id_ = want; man = load_manifest ~dir; packs_read = [] }

let open_ro ~dir =
  if not (Sys.file_exists dir) then fail "store %s: no such directory" dir;
  match Manifest.load_id ~dir with
  | Error e -> unreadable ~dir "identity" e ~fsck:"fsck"
  | Ok None -> fail "store %s: not a store (store.id missing)" dir
  | Ok (Some id_) -> { dir; id_; man = load_manifest ~dir; packs_read = [] }

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
  cfile : string;
  rfile : string;
  cw : Segment.writer;
  rw : Segment.writer;
  mutable pn : int;  (* records appended to each file *)
  mutable pspans : (int * int * int) list;  (* (lo, hi, at) per span, newest first *)
}

let open_pair t ~cfile ~rfile =
  {
    cfile;
    rfile;
    cw = Segment.create (Filename.concat t.dir cfile);
    rw = Segment.create (Filename.concat t.dir rfile);
    pn = 0;
    pspans = [];
  }

let add_span pw ~lo ~hi = pw.pspans <- (lo, hi, pw.pn) :: pw.pspans

let start_span t ~lints ~lo ~hi =
  let pw =
    open_pair t ~cfile:(cert_file ~lo ~hi) ~rfile:(rows_file ~fp8:(fp8_of_lints lints) ~lo ~hi)
  in
  add_span pw ~lo ~hi;
  pw

(* One past the highest pack number the manifest names: a pack is
   never renamed, so a fresh number never overwrites committed data. *)
let next_pack t =
  1
  + List.fold_left
      (fun m (s : Manifest.seg) -> max m (Option.value ~default:0 (parse_pack_file s.file)))
      0 (t.man.segments @ t.man.rows)

let start_pack t ~lints =
  let n = next_pack t in
  open_pair t ~cfile:(pack_cert_file n) ~rfile:(pack_rows_file ~fp8:(fp8_of_lints lints) n)

let append pw record ~row =
  if pw.pspans = [] then invalid_arg "Store.Db.append: no span started";
  Segment.append pw.cw (encode_record record);
  Segment.append pw.rw row;
  pw.pn <- pw.pn + 1;
  if pw.pn mod sync_interval = 0 then (
    Segment.sync pw.cw;
    Segment.sync pw.rw)

let finish_pack pw =
  let cseal = Segment.seal pw.cw in
  let rseal = Segment.seal pw.rw in
  Segment.close pw.cw;
  Segment.close pw.rw;
  (* Newest first, each span's records run up to where the next began. *)
  snd
    (List.fold_left
       (fun (stop, acc) (lo, hi, at) ->
         let seg file seal : Manifest.seg = { file; lo; hi; records = stop - at; at; seal } in
         (at, (seg pw.cfile cseal, seg pw.rfile rseal) :: acc))
       (pw.pn, []) pw.pspans)

let finish_span pw =
  match pw.pspans with
  | [ _ ] -> List.hd (finish_pack pw)
  | _ -> invalid_arg "Store.Db.finish_span: not a one-span writer"

let close_noerr pw =
  (try Segment.close pw.cw with _ -> ());
  try Segment.close pw.rw with _ -> ()

type rows_writer = { rlo : int; rhi : int; rfile2 : string; w : Segment.writer; mutable rn : int }

let start_rows_span t ~lints ~lo ~hi =
  let file = rows_file ~fp8:(fp8_of_lints lints) ~lo ~hi in
  (* A same-fp8 rows file may already exist when only indexes changed;
     the replacement is written under a distinct suffix-free name only
     if free, otherwise reuse forces ".new". *)
  let file = if Sys.file_exists (Filename.concat t.dir file) then file ^ ".new" else file in
  { rlo = lo; rhi = hi; rfile2 = file; w = Segment.create (Filename.concat t.dir file); rn = 0 }

let append_row rw row =
  Segment.append rw.w row;
  rw.rn <- rw.rn + 1;
  if rw.rn mod sync_interval = 0 then Segment.sync rw.w

let finish_rows_span rw =
  let seal = Segment.seal rw.w in
  Segment.close rw.w;
  ({ file = rw.rfile2; lo = rw.rlo; hi = rw.rhi; records = rw.rn; at = 0; seal } : Manifest.seg)

let close_rows_noerr rw = try Segment.close rw.w with _ -> ()

(* --- commit: publish a manifest, then drop unreferenced files --- *)

(* Every data file [man] names: segments, rows columns, index deltas. *)
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
      let stale_data = is_segment_file f in
      let stale_rows_tmp = Filename.check_suffix f ".seg.new" in
      let stale_idx = Filename.check_suffix f ".idx" in
      if (stale_data || stale_idx || stale_rows_tmp) && not (Hashtbl.mem referenced f) then
        remove_if_exists (Filename.concat t.dir f))
    (Sys.readdir t.dir)

(* --- reading --- *)

let scan_file t file =
  match Segment.scan (Filename.concat t.dir file) with
  | Error e -> fail "store %s: %s: %s" t.dir file e
  | Ok sc -> sc

(* A span is readable when its file is sealed and intact, carries the
   seal the descriptor names, and holds the descriptor's records. *)
let fits (sc : Segment.scan) (s : Manifest.seg) =
  sc.sealed && sc.problem = None && sc.seal_hex = s.seal && s.at >= 0
  && s.at + s.records <= sc.count

let check_span t (sc : Segment.scan) (s : Manifest.seg) =
  if not (fits sc s) then (
    Obs.Counter.inc corruptions;
    Obs.Trace.instant ~cat:"store" ~args:[ ("file", Str s.file) ] "store.corrupt";
    fail "store %s: %s is damaged (%s); run `unicert-store fsck --repair`" t.dir s.file
      (match sc.problem with
      | Some p -> Segment.describe_problem p
      | None -> "seal or count mismatch"))

(* One span's records and rows, copied once each straight from the two
   scanned file strings; both descriptors are checked first. *)
let iter_span t ((c : Manifest.seg), (r : Manifest.seg)) csc rsc f =
  check_span t csc c;
  check_span t rsc r;
  if c.records <> r.records then
    fail "store %s: %s and %s hold different record counts" t.dir c.file r.file;
  for k = 0 to c.records - 1 do
    let i = c.at + k in
    let pos = csc.Segment.starts.(i) in
    match decode_record_at csc.data ~pos ~len:(csc.ends.(i) - pos) with
    | Error e -> fail "store %s: %s: undecodable record (%s)" t.dir c.file e
    | Ok record ->
        Obs.Counter.inc reads;
        f record (Segment.payload rsc (r.at + k))
  done

(* A batch replay reads spans in index order, so it visits each pack
   once per span: keep the packs read, newest first, up to this many
   bytes of file data.  Shards on other domains may replace the list
   concurrently; a lost entry costs only a rescan. *)
let packs_read_bytes = 64 * 1024 * 1024

let span_file t (s : Manifest.seg) =
  if parse_pack_file s.file = None then scan_file t s.file
  else
    match List.find_opt (fun (f, seal, _) -> f = s.file && seal = s.seal) t.packs_read with
    | Some (_, _, sc) -> sc
    | None ->
        let sc = scan_file t s.file in
        let rec keep room = function
          | ((_, _, (p : Segment.scan)) as x) :: rest when String.length p.data <= room ->
              x :: keep (room - String.length p.data) rest
          | _ -> []
        in
        t.packs_read <- keep packs_read_bytes ((s.file, s.seal, sc) :: t.packs_read);
        sc

let iter_pair t ((c : Manifest.seg), (r : Manifest.seg)) f =
  Obs.Trace.span ~cat:"store" "store.read" (fun () ->
      iter_span t (c, r) (span_file t c) (span_file t r) f)

(* Spans grouped by certs file: each group ascending, the groups in the
   order of their first spans. *)
let by_cert_file pairs =
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (((c : Manifest.seg), _) as pr) ->
      match Hashtbl.find_opt groups c.file with
      | Some l -> Hashtbl.replace groups c.file (pr :: l)
      | None ->
          order := c.file :: !order;
          Hashtbl.add groups c.file [ pr ])
    pairs;
  List.rev_map (fun file -> List.rev (Hashtbl.find groups file)) !order

let iter_pairs t f =
  List.iter
    (fun group ->
      Obs.Trace.span ~cat:"store" "store.read" (fun () ->
          let csc = scan_file t (fst (List.hd group)).Manifest.file in
          let rows = Hashtbl.create 1 in
          List.iter
            (fun ((_, (r : Manifest.seg)) as pr) ->
              let rsc =
                match Hashtbl.find_opt rows r.file with
                | Some sc -> sc
                | None ->
                    let sc = scan_file t r.file in
                    Hashtbl.add rows r.file sc;
                    sc
              in
              iter_span t pr csc rsc f)
            group))
    (by_cert_file (spans t))

(* --- index deltas --- *)

let load_index t name =
  let rec parts acc = function
    | [] -> Ok (List.rev acc)
    | (_, file, _) :: rest -> (
        match Index.load ~dir:t.dir ~file with
        | Error e -> Error e
        | Ok named -> parts (List.assoc_opt name named :: acc) rest)
  in
  match parts [] t.man.indexes with
  | Error e -> Error e
  | Ok found -> (
      match List.filter_map Fun.id found with
      | [] -> Error (Printf.sprintf "no %S index (store incomplete or never indexed)" name)
      | [ one ] -> Ok one
      | several -> Ok (Index.union several))

let max_deltas = 16

let save_indexes ?(base = false) t named =
  let next =
    1
    + List.fold_left
        (fun m (_, file, _) -> max m (Option.value ~default:0 (parse_delta_file file)))
        0 t.man.indexes
  in
  let write named =
    let file = delta_file next in
    ("delta", file, Index.save ~dir:t.dir ~file named)
  in
  if base then [ write named ]
  else if List.length t.man.indexes < max_deltas then t.man.indexes @ [ write named ]
  else
    (* Compaction: this delta and every committed one fold into one. *)
    let parts =
      List.map
        (fun (_, file, _) ->
          match Index.load ~dir:t.dir ~file with
          | Ok part -> part
          | Error e -> fail "store %s: index %s: %s" t.dir file e)
        t.man.indexes
      @ [ named ]
    in
    let names =
      List.fold_left
        (fun acc part ->
          List.fold_left (fun acc (n, _) -> if List.mem n acc then acc else n :: acc) acc part)
        [] parts
      |> List.rev
    in
    [ write
        (List.map
           (fun name -> (name, Index.union (List.filter_map (List.assoc_opt name) parts)))
           names) ]

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
          ( ({ file = cfile; lo; hi; records = csc.count; at = 0; seal = csc.seal_hex } : Manifest.seg),
            ({ file = rfile; lo; hi; records = rsc.count; at = 0; seal = rsc.seal_hex } : Manifest.seg) )
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
                  ( ({ file = cfile'; lo; hi = hi'; records = n; at = 0; seal = cseal } : Manifest.seg),
                    ({ file = rfile'; lo; hi = hi'; records = n; at = 0; seal = rseal } : Manifest.seg) )))

(* Pack spans are adopted only through the committed manifest.  A span
   stays when both its files are sealed, intact and match its
   descriptors, and its rows were built for [fp8].  A damaged pack is
   quarantined whole, with every mate file no kept span still reads.
   Returns the kept spans, ascending, and the files they read; the
   recovery commit deletes every other pack — uncommitted, it is a
   crash before its manifest rename, and the daemon re-stages those
   entries from its fetch cursors. *)
let adopt_packs ~warn t ~fp8 =
  let scans = Hashtbl.create 16 in
  let intact file =
    match Hashtbl.find_opt scans file with
    | Some sc -> sc
    | None ->
        let sc =
          match Segment.scan (Filename.concat t.dir file) with
          | Error _ -> None
          | Ok sc -> (
              match sc.problem with
              | Some p ->
                  warn (Printf.sprintf "store: quarantining damaged pack %s" file);
                  quarantine_seg t.dir ~file ~reason:(Segment.problem_name p)
                    ~detail:(Segment.describe_problem p);
                  None
              | None -> if sc.sealed then Some sc else None)
        in
        Hashtbl.add scans file sc;
        sc
  in
  let usable (s : Manifest.seg) =
    match intact s.file with Some sc -> fits sc s | None -> false
  in
  let rows = rows_by_span t.man.rows in
  let damaged = ref [] in
  let kept =
    List.filter_map
      (fun (c : Manifest.seg) ->
        match Hashtbl.find_opt rows (c.lo, c.hi) with
        | Some (r : Manifest.seg) when parse_pack_file c.file <> None && rows_fp8 r.file = Some fp8
          ->
            if usable c && usable r && c.records = r.records then Some (c, r)
            else (
              damaged := c.file :: r.file :: !damaged;
              None)
        | _ -> None)
      (sorted_segments t.man)
  in
  let read = Hashtbl.create 16 in
  List.iter
    (fun ((c : Manifest.seg), (r : Manifest.seg)) ->
      Hashtbl.replace read c.file ();
      Hashtbl.replace read r.file ())
    kept;
  List.iter
    (fun file ->
      if (not (Hashtbl.mem read file)) && Sys.file_exists (Filename.concat t.dir file) then (
        warn (Printf.sprintf "store: quarantining %s, the mate of a damaged pack" file);
        quarantine_seg t.dir ~file ~reason:"lockstep_mate" ~detail:"pack mate is damaged"))
    (List.sort_uniq compare !damaged);
  (kept, read)

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
      let packs, claimed = adopt_packs ~warn t ~fp8 in
      let files = List.filter (fun f -> not (Hashtbl.mem claimed f)) (Array.to_list files) in
      let certs = files |> List.filter_map (fun f ->
          Option.map (fun (lo, hi) -> (lo, hi, f)) (parse_cert_file f))
      in
      let rows = files |> List.filter_map (fun f ->
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
         partial adoption; committed packs win, then the first span. *)
      let overlaps_pack (c : Manifest.seg) =
        List.exists (fun ((p : Manifest.seg), _) -> c.lo < p.hi && p.lo < c.hi) packs
      in
      let adopted =
        List.fold_left
          (fun (keep, covered) ((c : Manifest.seg), (r : Manifest.seg)) ->
            if c.lo >= covered && not (overlaps_pack c) then (((c, r) :: keep, c.hi))
            else (
              warn (Printf.sprintf "store: dropping overlapping span [%d,%d)" c.lo c.hi);
              Obs.Counter.inc repairs;
              remove_if_exists (Filename.concat t.dir c.file);
              remove_if_exists (Filename.concat t.dir r.file);
              (keep, covered)))
          ([], 0) adopted
        |> fst |> List.rev
      in
      let pairs =
        List.merge (fun ((a : Manifest.seg), _) (b, _) -> compare a.lo b.lo) packs adopted
      in
      let man =
        {
          (empty_manifest lints) with
          segments = List.map fst pairs;
          rows = List.map snd pairs;
        }
      in
      commit t man)

(* --- fsck --- *)

type issue = { file : string; problem : string; detail : string; repair : string }

type fsck_report = {
  issues : issue list;
  spans_ok : int;
  spans_expected : int;
  store_state : [ `Complete | `Building | `Absent | `Foreign ];
  usable : bool;
  repaired : bool;
}

let fsck ?(repair = false) ~dir () =
  Obs.Trace.span ~cat:"store" "store.fsck" (fun () ->
      if not (Sys.file_exists dir) then
        { issues = []; spans_ok = 0; spans_expected = 0; store_state = `Absent; usable = false; repaired = false }
      else
        let issues = ref [] in
        (* Once per file and problem: a pack's spans share its file. *)
        let flag ~file ~problem ~detail ~repair:r =
          if not (List.exists (fun i -> i.file = file && i.problem = problem) !issues) then begin
            Obs.Counter.inc corruptions;
            Obs.Trace.instant ~cat:"store"
              ~args:[ ("file", Str file); ("problem", Str problem) ]
              "store.fsck.issue";
            issues := { file; problem; detail; repair = r } :: !issues
          end
        in
        (* Another format version's store is not damage: one issue, no
           stray scan, no repair. *)
        match Manifest.foreign_version ~dir with
        | Some (file, v) ->
            flag ~file ~problem:"version" ~repair:"none"
              ~detail:(Printf.sprintf "format version %d, this build reads %d; rebuild the store" v Manifest.version);
            { issues = List.rev !issues; spans_ok = 0; spans_expected = 0; store_state = `Foreign; usable = false; repaired = false }
        | None ->
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
          (* Verify every file the manifest references once, then each
             span against its file: a pack stands or falls whole. *)
          let bad = Hashtbl.create 16 in
          let scanned = Hashtbl.create 64 in
          let scan_listed file =
            match Hashtbl.find_opt scanned file with
            | Some sc -> sc
            | None ->
                let path = Filename.concat dir file in
                let sc =
                  if not (Sys.file_exists path) then (
                    flag ~file ~problem:"missing" ~detail:"referenced by manifest"
                      ~repair:"drop-from-manifest";
                    None)
                  else
                    match Segment.scan path with
                    | Error e ->
                        flag ~file ~problem:"unreadable" ~detail:e ~repair:"quarantine";
                        None
                    | Ok sc -> (
                        match sc.problem with
                        | Some p ->
                            flag ~file ~problem:(Segment.problem_name p)
                              ~detail:(Segment.describe_problem p) ~repair:"quarantine";
                            None
                        | None when not sc.sealed ->
                            flag ~file ~problem:"unsealed"
                              ~detail:"manifest references an unsealed segment" ~repair:"quarantine";
                            None
                        | None -> Some sc)
                in
                if sc = None then Hashtbl.replace bad file ();
                Hashtbl.add scanned file sc;
                sc
          in
          let seg_ok (s : Manifest.seg) =
            match scan_listed s.file with
            | None -> false
            | Some sc when fits sc s -> true
            | Some sc ->
                flag ~file:s.file ~problem:"seal_mismatch"
                  ~detail:
                    (Printf.sprintf "manifest expects %d records seal %s…, file has %d seal %s…"
                       (s.at + s.records)
                       (String.sub s.seal 0 (min 8 (String.length s.seal)))
                       sc.count
                       (String.sub sc.seal_hex 0 8))
                  ~repair:"quarantine";
                Hashtbl.replace bad s.file ();
                false
          in
          let rows = rows_by_span man.rows in
          let checked =
            List.filter_map
              (fun (c : Manifest.seg) ->
                match Hashtbl.find_opt rows (c.lo, c.hi) with
                | None ->
                    flag ~file:c.file ~problem:"no_rows_mate" ~detail:"span has no rows column"
                      ~repair:"drop-from-manifest";
                    None
                | Some r ->
                    let cok = seg_ok c and rok = seg_ok r in
                    Some (c, r, cok && rok))
              man.segments
          in
          let good_pairs =
            List.filter_map
              (fun ((c : Manifest.seg), (r : Manifest.seg), ok) ->
                if ok && not (Hashtbl.mem bad c.file || Hashtbl.mem bad r.file) then Some (c, r)
                else None)
              checked
          in
          (* Index deltas: a lookup unions them all, so one bad delta
             drops the whole list. *)
          let indexes_ok =
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
          let good_indexes =
            if List.length indexes_ok = List.length man.indexes then man.indexes else []
          in
          (* Unreferenced data files. *)
          let referenced = referenced_files man in
          let adoptable = ref 0 in
          Array.iter
            (fun f ->
              let is_data =
                is_segment_file f
                || Filename.check_suffix f ".idx"
                || Filename.check_suffix f ".seg.new"
              in
              if is_data && not (Hashtbl.mem referenced f) then
                if man.state = `Building && not (Filename.check_suffix f ".idx") then begin
                  (* Build in flight: unlisted segments are adoption
                     candidates for the next recovery, not errors — and
                     an intact one-span certs file means salvageable
                     data survives the crash, so it counts toward
                     usability.  An unlisted pack is an uncommitted one,
                     which recovery deletes. *)
                  if parse_cert_file f <> None then
                    match Segment.scan (Filename.concat dir f) with
                    | Ok sc when sc.problem = None -> incr adoptable
                    | Ok _ | Error _ -> ()
                end
                else
                  flag ~file:f ~problem:"stray" ~detail:"not referenced by manifest"
                    ~repair:"delete")
            files;
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
                 (* Quarantine the intact mates of quarantined files
                    that no good span still reads: a pair lives and
                    dies together. *)
                 let good = Hashtbl.create 64 in
                 List.iter
                   (fun ((gc : Manifest.seg), (gr : Manifest.seg)) ->
                     Hashtbl.replace good gc.file ();
                     Hashtbl.replace good gr.file ())
                   good_pairs;
                 List.iter
                   (fun ((c : Manifest.seg), (r : Manifest.seg), _) ->
                     let gone (s : Manifest.seg) =
                       not (Sys.file_exists (Filename.concat dir s.file))
                     in
                     if gone c <> gone r then
                       let file = if gone c then r.file else c.file in
                       if not (Hashtbl.mem good file) then begin
                         Hashtbl.replace good file ();
                         quarantine_seg dir ~file ~reason:"lockstep_mate"
                           ~detail:"mate segment was quarantined"
                       end)
                   checked;
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
                   Manifest.save ~dir man';
                   (* Deltas the rewrite stops listing are strays now. *)
                   List.iter
                     (fun (_, file, _) ->
                       if not (List.exists (fun (_, f, _) -> f = file) man'.indexes) then
                         remove_if_exists (Filename.concat dir file))
                     man.indexes);
                 true
               end
          in
          {
            issues = List.rev !issues;
            spans_ok;
            spans_expected;
            store_state = (if man_ok then (man.state :> [ `Complete | `Building | `Absent | `Foreign ]) else `Building);
            usable;
            repaired;
          }
        end)

let prewarm () =
  ignore (Ucrypto.Sha256.hex "");
  Obs.Counter.inc reads;
  Obs.Counter.reset reads
