let magic = "USTOREIDX1\n"

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

let save ~dir ~name entries =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, ids) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (List.rev_append ids prev))
    entries;
  let lines =
    Hashtbl.fold (fun k ids acc -> (encode_key k, List.sort_uniq compare ids) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  List.iter
    (fun (k, ids) ->
      Buffer.add_string b k;
      Buffer.add_char b '\t';
      Buffer.add_string b (String.concat "," (List.map string_of_int ids));
      Buffer.add_char b '\n')
    lines;
  let sha = Ucrypto.Sha256.hex (Buffer.contents b) in
  Buffer.add_string b ("end " ^ sha ^ "\n");
  let file = name ^ ".idx" in
  Atomicf.write ~op:"index.write" ~rename_point:"index.rename" (Filename.concat dir file)
    (Buffer.contents b);
  (file, sha)

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
  | Ok (s, body_len, _) ->
      let lines = String.split_on_char '\n' (String.sub s 0 body_len) in
      (* drop the magic line and the trailing empty split *)
      let lines =
        match lines with
        | _magic :: rest -> List.filter (fun l -> l <> "") rest
        | [] -> []
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
            match String.index_opt line '\t' with
            | None -> Error (Printf.sprintf "malformed index line: %s" line)
            | Some tab -> (
                let k = String.sub line 0 tab in
                let ids = String.sub line (tab + 1) (String.length line - tab - 1) in
                match decode_key k with
                | Error e -> Error e
                | Ok key ->
                    let ids =
                      String.split_on_char ',' ids
                      |> List.filter_map int_of_string_opt
                    in
                    go ((key, ids) :: acc) rest))
      in
      go [] lines
