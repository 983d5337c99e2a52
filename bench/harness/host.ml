(* The host fingerprint every result carries: a number without the
   machine it was measured on does not count. *)

let nproc () =
  (* CPUs this process may run on, as nproc(1) counts them. *)
  let of_list l =
    String.split_on_char ',' l
    |> List.fold_left
         (fun acc part ->
           match String.split_on_char '-' (String.trim part) with
           | [ a; b ] -> (
               match (int_of_string_opt a, int_of_string_opt b) with
               | Some a, Some b -> acc + (b - a + 1)
               | _ -> acc)
           | [ a ] -> if int_of_string_opt a <> None then acc + 1 else acc
           | _ -> acc)
         0
  in
  match Proc.status_field "self" "Cpus_allowed_list" with
  | Some l when of_list l > 0 -> of_list l
  | _ -> Domain.recommended_domain_count ()

let cpu_model () =
  match Proc.read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.trim (String.sub line 0 i) = "model name" ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)
      |> Option.value ~default:"unknown"

(* The checked-out commit when the working directory is a git
   checkout; [None] otherwise (an exported tree has no history). *)
let git_commit () =
  let read p = Option.map String.trim (Proc.read_file p) in
  match read ".git/HEAD" with
  | None -> None
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some c -> Some c
      | None ->
          Option.bind (Proc.read_file ".git/packed-refs") (fun s ->
              String.split_on_char '\n' s
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ c; name ] when name = r -> Some c
                     | _ -> None)))
  | Some c -> Some c

let fingerprint () =
  Json.obj
    [
      ("nproc", Json.int (nproc ()));
      ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
      ("cpu_model", Json.str (cpu_model ()));
      ("ocaml_version", Json.str Sys.ocaml_version);
      ( "git_commit",
        match git_commit () with Some c -> Json.str c | None -> Obs.Jsonv.Null );
    ]
