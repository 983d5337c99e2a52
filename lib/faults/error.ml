type t =
  | Decode_error of { offset : int option; detail : string }
  | Lint_crash of { lint : string; exn_name : string; detail : string }
  | Model_crash of { model : string; exn_name : string; detail : string }
  | Timeout of { stage : string; seconds : float }
  | Resource of { stage : string; detail : string }
  | Integrity of { log : string; detail : string }

let class_name = function
  | Decode_error _ -> "decode_error"
  | Lint_crash _ -> "lint_crash"
  | Model_crash _ -> "model_crash"
  | Timeout _ -> "timeout"
  | Resource _ -> "resource"
  | Integrity _ -> "integrity"

let detail = function
  | Decode_error { offset = Some off; detail } ->
      Printf.sprintf "offset %d: %s" off detail
  | Decode_error { offset = None; detail } -> detail
  | Lint_crash { lint; exn_name; detail } ->
      Printf.sprintf "%s raised %s: %s" lint exn_name detail
  | Model_crash { model; exn_name; detail } ->
      Printf.sprintf "%s raised %s: %s" model exn_name detail
  | Timeout { stage; seconds } -> Printf.sprintf "%s exceeded %.3fs" stage seconds
  | Resource { stage; detail } -> Printf.sprintf "%s: %s" stage detail
  | Integrity { log; detail } -> Printf.sprintf "%s: %s" log detail

let to_string e = class_name e ^ ": " ^ detail e

let exn_name e =
  match e with
  | Failure _ -> "Failure"
  | Invalid_argument _ -> "Invalid_argument"
  | Not_found -> "Not_found"
  | Stack_overflow -> "Stack_overflow"
  | Out_of_memory -> "Out_of_memory"
  | Division_by_zero -> "Division_by_zero"
  | Sys_error _ -> "Sys_error"
  | End_of_file -> "End_of_file"
  | Exit -> "Exit"
  | _ -> (
      (* Constructor name without the payload. *)
      match Printexc.exn_slot_name e with
      | name -> name
      | exception _ -> "<unknown exception>")

let of_exn ~stage e =
  match e with
  | Stack_overflow -> Resource { stage; detail = "stack overflow" }
  | Out_of_memory -> Resource { stage; detail = "out of memory" }
  | Sys_error m -> Resource { stage; detail = m }
  | e ->
      Decode_error
        { offset = None;
          detail = Printf.sprintf "%s: %s" stage (Printexc.to_string e) }

(* Invert {!detail}'s renderings so stored fault records (class + detail
   strings) rehydrate into the constructor they came from.  Parsing is
   best-effort: an unrecognized layout keeps the full detail text under
   the same class where the class admits it, or degrades to
   [Decode_error]. *)
let of_class ~class_ ~detail:d =
  let split_colon s =
    match String.index_opt s ':' with
    | Some i when i + 2 <= String.length s && s.[i + 1] = ' ' ->
        Some (String.sub s 0 i, String.sub s (i + 2) (String.length s - i - 2))
    | _ -> None
  in
  let split_raised s =
    (* "<who> raised <exn>: <detail>" *)
    match split_colon s with
    | None -> None
    | Some (head, rest) -> (
        let marker = " raised " in
        match
          let rec find i =
            if i + String.length marker > String.length head then None
            else if String.sub head i (String.length marker) = marker then Some i
            else find (i + 1)
          in
          find 0
        with
        | None -> None
        | Some i ->
            Some
              ( String.sub head 0 i,
                String.sub head
                  (i + String.length marker)
                  (String.length head - i - String.length marker),
                rest ))
  in
  match class_ with
  | "lint_crash" -> (
      match split_raised d with
      | Some (lint, exn_name, detail) -> Lint_crash { lint; exn_name; detail }
      | None -> Lint_crash { lint = "?"; exn_name = "?"; detail = d })
  | "model_crash" -> (
      match split_raised d with
      | Some (model, exn_name, detail) -> Model_crash { model; exn_name; detail }
      | None -> Model_crash { model = "?"; exn_name = "?"; detail = d })
  | "timeout" -> (
      match Scanf.sscanf d "%s@ exceeded %fs%!" (fun stage s -> (stage, s)) with
      | stage, seconds -> Timeout { stage; seconds }
      | exception _ -> Timeout { stage = d; seconds = 0. })
  | "resource" -> (
      match split_colon d with
      | Some (stage, detail) -> Resource { stage; detail }
      | None -> Resource { stage = "?"; detail = d })
  | "integrity" -> (
      match split_colon d with
      | Some (log, detail) -> Integrity { log; detail }
      | None -> Integrity { log = "?"; detail = d })
  | _ -> (
      match Scanf.sscanf d "offset %d: %s@\255%!" (fun o rest -> (o, rest)) with
      | o, rest -> Decode_error { offset = Some o; detail = rest }
      | exception _ -> Decode_error { offset = None; detail = d })

let obs_errors =
  lazy
    (Obs.Registry.labeled_counter ~label:"class"
       ~help:"Fault events recorded by error boundaries, by taxonomy class"
       "unicert_fault_errors_total")

let prewarm () = ignore (Lazy.force obs_errors)

let observe e =
  Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_errors) (class_name e))
