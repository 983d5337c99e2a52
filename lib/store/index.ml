let magic = "USTOREIDX2\n"

let needs_escape c =
  c = '%' || c = '\t' || c = '\n' || c = '\r' || Char.code c < 0x20

let encode_key k =
  if String.exists needs_escape k then (
    let b = Buffer.create (String.length k + 8) in
    String.iter
      (fun c ->
        if needs_escape c then Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char b c)
      k;
    Buffer.contents b)
  else k

let decode_key k =
  if not (String.contains k '%') then Ok k
  else
    let b = Buffer.create (String.length k) in
    let n = String.length k in
    let rec go i =
      if i >= n then Ok (Buffer.contents b)
      else if k.[i] = '%' then
        if i + 2 < n then (
          match int_of_string_opt ("0x" ^ String.sub k (i + 1) 2) with
          | Some c ->
              Buffer.add_char b (Char.chr c);
              go (i + 3)
          | None -> Error "bad escape")
        else Error "truncated escape"
      else (
        Buffer.add_char b k.[i];
        go (i + 1))
    in
    go 0

(* (encoded key, ids) lines, sorted by encoded key. *)
let normalize parts =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, ids) ->
         let prev = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
         Hashtbl.replace tbl k (List.rev_append ids prev)))
    parts;
  Hashtbl.fold (fun k ids acc -> (encode_key k, k, List.sort_uniq compare ids) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let union parts = List.map (fun (_, k, ids) -> (k, ids)) (normalize parts)

let save ~dir ~file named =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_string b (String.concat " " (List.map fst named));
  Buffer.add_char b '\n';
  List.iter
    (fun (name, entries) ->
      List.iter
        (fun (k, _, ids) ->
          Buffer.add_string b name;
          Buffer.add_char b '\t';
          Buffer.add_string b k;
          Buffer.add_char b '\t';
          Buffer.add_string b (String.concat "," (List.map string_of_int ids));
          Buffer.add_char b '\n')
        (normalize [ entries ]))
    (List.sort (fun (a, _) (b, _) -> compare a b) named);
  let sha = Ucrypto.Sha256.hex (Buffer.contents b) in
  Buffer.add_string b ("end " ^ sha ^ "\n");
  Atomicf.write ~op:"index.write" ~rename_point:"index.rename" (Filename.concat dir file)
    (Buffer.contents b);
  sha

let read_and_verify ~dir ~file =
  let path = Filename.concat dir file in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | s -> (
      if String.length s < String.length magic || String.sub s 0 (String.length magic) <> magic
      then Error "bad index header"
      else
        (* The seal is the final "end <sha>\n" line over everything
           before it; [Ok (s, n, sha)] says the first [n] bytes of [s]
           are that sealed body. *)
        match String.rindex_opt (String.trim s) '\n' with
        | None -> Error "missing index seal"
        | Some last_nl ->
            let seal_line = String.trim (String.sub s (last_nl + 1) (String.length s - last_nl - 1)) in
            if not (String.length seal_line = 68 && String.sub seal_line 0 4 = "end ") then
              Error "missing index seal"
            else
              let sha = String.sub seal_line 4 64 in
              if Ucrypto.Sha256.hex_sub s ~off:0 ~len:(last_nl + 1) <> sha then
                Error "index seal mismatch"
              else Ok (s, last_nl + 1, sha))

let sha_hex ~dir ~file = Result.map (fun (_, _, sha) -> sha) (read_and_verify ~dir ~file)

let load ~dir ~file =
  match read_and_verify ~dir ~file with
  | Error e -> Error e
  | Ok (s, body_len, _) -> (
      (* The magic line, the names line, then the entries; the split
         leaves a trailing "". *)
      match String.split_on_char '\n' (String.sub s 0 body_len) with
      | _magic :: names :: lines ->
          let names = List.filter (fun n -> n <> "") (String.split_on_char ' ' names) in
          let found = Hashtbl.create 8 in
          let entries n = List.rev (Option.value ~default:[] (Hashtbl.find_opt found n)) in
          let rec go = function
            | [] -> Ok (List.map (fun n -> (n, entries n)) names)
            | "" :: rest -> go rest
            | line :: rest -> (
                match String.split_on_char '\t' line with
                | [ name; k; ids ] when List.mem name names -> (
                    match decode_key k with
                    | Error e -> Error e
                    | Ok key ->
                        let ids =
                          String.split_on_char ',' ids |> List.filter_map int_of_string_opt
                        in
                        let prev = Option.value ~default:[] (Hashtbl.find_opt found name) in
                        Hashtbl.replace found name ((key, ids) :: prev);
                        go rest)
                | _ -> Error (Printf.sprintf "malformed index line: %s" line))
          in
          go lines
      | _ -> Error "missing index names line")
