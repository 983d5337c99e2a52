type t = {
  path : string;
  oc : out_channel;
  mutable written : int;
  mutable closed : bool;
}

let obs_quarantined =
  lazy
    (Obs.Registry.counter
       ~help:"Certificates written to the quarantine sidecar"
       "unicert_quarantine_total")

let prewarm () = ignore (Lazy.force obs_quarantined)

let ensure_dir dir =
  (if not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"))

let main_path ~dir ~run_seed =
  Filename.concat dir (Printf.sprintf "quarantine-%d.jsonl" run_seed)

let shard_path ~dir ~run_seed ~shard =
  Filename.concat dir (Printf.sprintf "quarantine-%d.shard%d.jsonl" run_seed shard)

(* A shard sidecar is transient: truncated on open (a leftover from a
   crashed pass must not double its records) and folded into the main
   sidecar by [merge_shards] when the parallel pass ends. *)
let open_shard ~dir ~run_seed ~shard =
  ensure_dir dir;
  let path = shard_path ~dir ~run_seed ~shard in
  let oc = open_out_gen [ Open_wronly; Open_trunc; Open_creat ] 0o644 path in
  { path; oc; written = 0; closed = false }

let merge_shards ~dir ~run_seed ~shards =
  ensure_dir dir;
  let main = main_path ~dir ~run_seed in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 main in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for shard = 0 to shards - 1 do
        let p = shard_path ~dir ~run_seed ~shard in
        if Sys.file_exists p then begin
          let ic = open_in_bin p in
          let buf = Bytes.create 65536 in
          let rec copy () =
            let n = input ic buf 0 (Bytes.length buf) in
            if n > 0 then begin
              output oc buf 0 n;
              copy ()
            end
          in
          copy ();
          close_in ic;
          Sys.remove p
        end
      done);
  main

let path t = t.path

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let record t ~index ~error ~der =
  if t.closed then invalid_arg "Faults.Quarantine.record: closed";
  Printf.fprintf t.oc
    {|{"index":%d,"class":"%s","detail":"%s","der_hex":"%s"}|}
    index
    (Error.class_name error)
    (json_escape (Error.detail error))
    (Ucrypto.Hex.encode der);
  output_char t.oc '\n';
  flush t.oc;
  t.written <- t.written + 1;
  Obs.Counter.inc (Lazy.force obs_quarantined)

let count t = t.written

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end

type entry = {
  index : int;
  error_class : string;
  detail : string;
  der : string;
}

(* Minimal field scanner for the flat records we write ourselves; not a
   general JSON parser. *)
let field line name =
  let marker = Printf.sprintf {|"%s":|} name in
  match
    let rec find from =
      match String.index_from_opt line from '"' with
      | None -> None
      | Some q ->
          if
            q + String.length marker <= String.length line
            && String.sub line q (String.length marker) = marker
          then Some (q + String.length marker)
          else find (q + 1)
    in
    find 0
  with
  | None -> None
  | Some start ->
      if start < String.length line && line.[start] = '"' then begin
        (* string value: scan to the closing unescaped quote *)
        let b = Buffer.create 16 in
        let rec go i =
          if i >= String.length line then None
          else
            match line.[i] with
            | '"' -> Some (Buffer.contents b)
            | '\\' when i + 1 < String.length line ->
                (match line.[i + 1] with
                | 'n' -> Buffer.add_char b '\n'
                | 'r' -> Buffer.add_char b '\r'
                | 't' -> Buffer.add_char b '\t'
                | 'u' ->
                    if i + 5 < String.length line then
                      Buffer.add_char b
                        (Char.chr
                           (int_of_string ("0x" ^ String.sub line (i + 2) 4)
                           land 0xFF))
                | c -> Buffer.add_char b c);
                go (i + if line.[i + 1] = 'u' then 6 else 2)
            | c ->
                Buffer.add_char b c;
                go (i + 1)
        in
        go (start + 1)
      end
      else begin
        let stop = ref start in
        while
          !stop < String.length line
          && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
        do
          incr stop
        done;
        if !stop > start then Some (String.sub line start (!stop - start))
        else None
      end

let parse_line line =
  match
    ( field line "index",
      field line "class",
      field line "detail",
      field line "der_hex" )
  with
  | Some idx, Some cls, Some detail, Some hex -> (
      match (int_of_string_opt idx, Ucrypto.Hex.decode hex) with
      | Some index, Some der -> Some { index; error_class = cls; detail; der }
      | _ -> None)
  | _ -> None

let load path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       match parse_line (input_line ic) with
       | Some e -> entries := e :: !entries
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries
