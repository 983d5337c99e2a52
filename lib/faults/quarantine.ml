type t = {
  path : string;
  oc : out_channel;
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
  { path; oc; closed = false }

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

let record t ~index ~error ~der =
  if t.closed then invalid_arg "Faults.Quarantine.record: closed";
  Printf.fprintf t.oc
    {|{"index":%d,"class":"%s","detail":%s,"der_hex":"%s"}|}
    index
    (Error.class_name error)
    (Obs.Jsonv.escape (Error.detail error))
    (Ucrypto.Hex.encode der);
  output_char t.oc '\n';
  flush t.oc;
  Obs.Counter.inc (Lazy.force obs_quarantined)

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end

type entry = { index : int; error_class : string; der : string }

let parse_line line =
  match Obs.Jsonv.parse line with
  | Error _ -> None
  | Ok v -> (
      match Obs.Jsonv.(member "index" v, member "class" v, member "der_hex" v) with
      | Some (Num index), Some (Str error_class), Some (Str hex) ->
          Option.map
            (fun der -> { index = int_of_float index; error_class; der })
            (Ucrypto.Hex.decode hex)
      | _ -> None)

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
