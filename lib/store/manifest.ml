type id = { scale : int; seed : int; fingerprint : string }

type seg = { file : string; lo : int; hi : int; records : int; at : int; seal : string }

type t = {
  state : [ `Building | `Complete ];
  lints : string;
  segments : seg list;
  rows : seg list;
  indexes : (string * string * string) list;
  meta : (string * string) list;
}

let version = 2
let id_file = "store.id"
let file = "manifest.json"

(* --- serialization (hand-rolled on Obs.Jsonv, like the trace exporter) --- *)

let esc = Obs.Jsonv.escape

let seg_json b { file; lo; hi; records; at; seal } =
  Buffer.add_string b
    (Printf.sprintf {|{"file":%s,"lo":%d,"hi":%d,"records":%d,"at":%d,"seal":%s}|}
       (esc file) lo hi records at (esc seal))

let list_json b xs f =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    xs;
  Buffer.add_char b ']'

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf {|{"version":%d,"state":%s,"lints":%s,"segments":|} version
       (esc (match t.state with `Building -> "building" | `Complete -> "complete"))
       (esc t.lints));
  list_json b t.segments seg_json;
  Buffer.add_string b {|,"rows":|};
  list_json b t.rows seg_json;
  Buffer.add_string b {|,"indexes":|};
  list_json b t.indexes (fun b (name, file, sha) ->
      Buffer.add_string b
        (Printf.sprintf {|{"name":%s,"file":%s,"sha256":%s}|} (esc name) (esc file) (esc sha)));
  Buffer.add_string b {|,"meta":{|};
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (esc k);
      Buffer.add_char b ':';
      Buffer.add_string b (esc v))
    t.meta;
  Buffer.add_string b "}}\n";
  Buffer.contents b

let id_to_json { scale; seed; fingerprint } =
  Printf.sprintf {|{"version":%d,"scale":%d,"seed":%d,"fingerprint":%s}|} version scale
    seed (esc fingerprint)
  ^ "\n"

(* --- parsing --- *)

let str = function Obs.Jsonv.Str s -> Some s | _ -> None
let num = function Obs.Jsonv.Num f -> Some (int_of_float f) | _ -> None

let field conv name j =
  match Option.bind (Obs.Jsonv.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let ( let* ) = Result.bind

let seg_of_json j =
  let* file = field str "file" j in
  let* lo = field num "lo" j in
  let* hi = field num "hi" j in
  let* records = field num "records" j in
  let* at = field num "at" j in
  let* seal = field str "seal" j in
  Ok { file; lo; hi; records; at; seal }

let segs_of_json name j =
  match Obs.Jsonv.member name j with
  | Some (Obs.Jsonv.List xs) ->
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          let* s = seg_of_json x in
          Ok (s :: acc))
        (Ok []) xs
      |> Result.map List.rev
  | _ -> Error (Printf.sprintf "missing list %S" name)

let check_version j =
  let* v = field num "version" j in
  if v <> version then
    Error (Printf.sprintf "format version %d, this build reads %d" v version)
  else Ok ()

let of_json j =
  let* () = check_version j in
  let* state =
    match field str "state" j with
    | Ok "building" -> Ok `Building
    | Ok "complete" -> Ok `Complete
    | Ok s -> Error (Printf.sprintf "unknown state %S" s)
    | Error e -> Error e
  in
  let* lints = field str "lints" j in
  let* segments = segs_of_json "segments" j in
  let* rows = segs_of_json "rows" j in
  let* indexes =
    match Obs.Jsonv.member "indexes" j with
    | Some (Obs.Jsonv.List xs) ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* name = field str "name" x in
            let* file = field str "file" x in
            let* sha = field str "sha256" x in
            Ok ((name, file, sha) :: acc))
          (Ok []) xs
        |> Result.map List.rev
    | _ -> Error "missing list \"indexes\""
  in
  let* meta =
    match Obs.Jsonv.member "meta" j with
    | Some (Obs.Jsonv.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | Obs.Jsonv.Str s -> Ok ((k, s) :: acc)
            | _ -> Error (Printf.sprintf "meta %S is not a string" k))
          (Ok []) kvs
        |> Result.map List.rev
    | _ -> Error "missing object \"meta\""
  in
  Ok { state; lints; segments; rows; indexes; meta }

let id_of_json j =
  let* () = check_version j in
  let* scale = field num "scale" j in
  let* seed = field num "seed" j in
  let* fingerprint = field str "fingerprint" j in
  Ok { scale; seed; fingerprint }

(* --- I/O --- *)

let read_file path =
  if not (Sys.file_exists path) then Ok None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e -> Error e
    | s -> Ok (Some s)

let load_with parse path =
  let* contents = read_file path in
  match contents with
  | None -> Ok None
  | Some s -> (
      match Obs.Jsonv.parse s with
      | Error e -> Error (Printf.sprintf "%s: unparseable: %s" path e)
      | Ok j -> (
          match parse j with
          | Ok v -> Ok (Some v)
          | Error e -> Error (Printf.sprintf "%s: %s" path e)))

let save_id ~dir id =
  Atomicf.write ~op:"manifest.write" ~rename_point:"manifest.rename"
    (Filename.concat dir id_file) (id_to_json id)

let load_id ~dir = load_with id_of_json (Filename.concat dir id_file)

let save ~dir t =
  Obs.Trace.span ~cat:"store" "manifest.commit" (fun () ->
      Atomicf.write ~op:"manifest.write" ~rename_point:"manifest.rename"
        (Filename.concat dir file) (to_json t))

let load ~dir = load_with of_json (Filename.concat dir file)

let foreign_version ~dir =
  List.find_map
    (fun name ->
      match load_with (field num "version") (Filename.concat dir name) with
      | Ok (Some v) when v <> version -> Some (name, v)
      | _ -> None)
    [ id_file; file ]
