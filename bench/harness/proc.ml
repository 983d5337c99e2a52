(* Child processes, scratch directories and /proc readings.

   Every child the benchmark starts is tracked until it is reaped; an
   exit handler kills and reaps whatever is still running, so no run
   leaves a process behind even when it stops on an exception. *)

let live : int list ref = ref []

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let spawn ?stdin ?stdout prog args =
  let null = devnull () in
  let stdin = Option.value stdin ~default:null in
  let stdout = Option.value stdout ~default:null in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout
          Unix.stderr)
  in
  live := pid :: !live;
  pid

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status ->
      live := List.filter (( <> ) pid) !live;
      status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait pid))
    !live

let () = at_exit kill_all

(* Run [prog args] to completion; its stdout and the wall seconds from
   spawn to exit. *)
let capture prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close w) (fun () -> spawn ~stdout:w prog args)
  in
  let ic = Unix.in_channel_of_descr r in
  let out = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  let status = wait pid in
  (status, out, Unix.gettimeofday () -. t0)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Total size of the regular files directly inside [dir]. *)
let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat dir f) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc)
    0 (Sys.readdir dir)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* A "Key:   value ..." line of /proc/<pid>/status, value part only. *)
let status_field pid key =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> None
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = key ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)

(* Peak resident set size in MB of [pid] ("self" for this process). *)
let peak_rss_mb pid =
  match status_field pid "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> (
          match float_of_string_opt kb with Some kb -> kb /. 1024. | None -> nan)
      | [] -> nan)
  | None -> nan
