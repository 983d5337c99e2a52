(* Fuzzer smoke test: drive the real unicert-fuzz binary and check the
   campaign contract end to end:

   - the pinned seed-7 campaign emits byte-identical findings JSONL
     across --jobs 1/2/4, and those bytes hash to a golden SHA-256;
   - it rediscovers the checked-in reproducer clusters, with at least
     three distinct beyond-Tables-4/5 anomaly classes;
   - the minimize and report subcommands run over real findings;
   - the exit-code funnel holds: 0 on a clean campaign, 3 on a
     wall-clock abort, 4 when a model is deterministically crashed into
     degradation, 2 on a corrupt checkpoint under --resume.

   The binary path arrives as argv(1) from the dune rule. *)

let exe =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: fuzz_smoke UNICERT_FUZZ_EXE";
    exit 2
  end
  else Sys.argv.(1)

let failures = ref 0

let checkf ok fmt =
  Printf.ksprintf
    (fun msg ->
      if ok then Printf.printf "ok: %s\n%!" msg
      else begin
        incr failures;
        Printf.printf "FAIL: %s\n%!" msg
      end)
    fmt

let dir = "fuzz_smoke_tmp"

let () = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
let in_dir f = Filename.concat dir f

(* Run the binary with [args]; stdout goes to [out], stderr is
   inherited.  Returns the exit code. *)
let run ?(out = in_dir "stdout.txt") args =
  let argv = Array.of_list (exe :: args) in
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid = Unix.create_process exe argv Unix.stdin fd Unix.stderr in
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, Unix.WSIGNALED s | _, Unix.WSTOPPED s -> 128 + s

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* --- determinism: byte-identical findings across --jobs 1/2/4 --- *)

let campaign_args = [ "run"; "--budget"; "256"; "--seed"; "7" ]

let findings_for jobs =
  let file = in_dir (Printf.sprintf "findings_j%d.jsonl" jobs) in
  let code =
    run (campaign_args @ [ "--jobs"; string_of_int jobs; "--findings"; file ])
  in
  checkf (code = 0) "seed-7 campaign exits 0 with --jobs %d (got %d)" jobs code;
  file

let () =
  let f1 = findings_for 1 in
  let b1 = read_file f1 in
  List.iter
    (fun jobs ->
      let b = read_file (findings_for jobs) in
      checkf (b = b1) "findings byte-identical: --jobs 1 vs --jobs %d" jobs)
    [ 2; 4 ];
  checkf (String.length b1 > 0) "seed-7 campaign finds something";
  (* The jobs comparison above compares one implementation with itself;
     this pins the bytes.  A fuzz change that is meant to move them must
     update the constant. *)
  let golden =
    "681b672fbeab15e46eb487bbda831b87d11cadd205261d0d367ecb9e3a8f8f97"
  in
  let got = Ucrypto.Sha256.hex b1 in
  checkf (got = golden) "seed-7 findings SHA-256 is the golden %s (got %s)"
    golden got;

  (* --- cluster rediscovery against the checked-in corpus --- *)
  match Fuzz.Findings.read f1 with
  | Error msg -> checkf false "findings parse: %s" msg
  | Ok findings ->
      let clusters = Fuzz.Findings.clusters findings in
      let have c = List.exists (fun (c', _, _, _) -> c' = c) clusters in
      List.iter
        (fun c -> checkf (have c) "campaign rediscovers cluster %s" c)
        [
          "idna-blindspot-afb26948"; "nul-transparency-62985454";
          "ctl-passthrough-3a542719"; "confusable-passthrough-a5d74768";
        ];
      let beyond =
        List.filter (fun (_, cls, _, _) -> Fuzz.Exec.beyond_tables cls) clusters
        |> List.map (fun (_, cls, _, _) -> cls)
        |> List.sort_uniq compare
      in
      checkf
        (List.length beyond >= 3)
        "at least 3 distinct beyond-table anomaly classes (got %d: %s)"
        (List.length beyond) (String.concat ", " beyond)

(* --- minimize + report subcommands over real findings --- *)

let () =
  let small = in_dir "findings_small.jsonl" in
  let code =
    run [ "run"; "--budget"; "64"; "--seed"; "7"; "--findings"; small ]
  in
  checkf (code = 0) "small campaign exits 0 (got %d)" code;
  let minimized = in_dir "findings_min.jsonl" in
  let code =
    run [ "minimize"; "--findings"; small; "--out"; minimized ]
  in
  checkf (code = 0) "minimize exits 0 (got %d)" code;
  (match Fuzz.Findings.read minimized with
  | Error msg -> checkf false "minimized findings parse: %s" msg
  | Ok fs ->
      let shrunk =
        List.filter
          (fun f ->
            match f.Fuzz.Findings.min_der with
            | Some m -> String.length m <= String.length f.Fuzz.Findings.der
            | None -> false)
          fs
      in
      checkf (shrunk <> []) "minimize stamps min_der on cluster exemplars";
      checkf
        (List.for_all
           (fun f ->
             match f.Fuzz.Findings.min_der with
             | Some m -> String.length m <= String.length f.Fuzz.Findings.der
             | None -> true)
           fs)
        "minimized reproducers never grow");
  let code = run [ "report"; "--findings"; minimized ] in
  checkf (code = 0) "report exits 0 (got %d)" code

(* --- exit-code funnel --- *)

let () =
  List.iter
    (fun (label, args, expected) ->
      let code = run args in
      checkf (code = expected) "exit funnel: %s -> %d (got %d)" label expected
        code)
    [
      ( "clean campaign",
        [ "run"; "--budget"; "32"; "--seed"; "3"; "--findings";
          in_dir "f_clean.jsonl" ],
        0 );
      ( "wall-clock abort",
        [ "run"; "--budget"; "32"; "--seed"; "3"; "--max-seconds"; "0";
          "--findings"; in_dir "f_wall.jsonl" ],
        3 );
      ( "degraded model via deterministic crash injection",
        [ "run"; "--budget"; "64"; "--seed"; "3"; "--fault-model";
          "OpenSSL:1"; "--findings"; in_dir "f_degraded.jsonl" ],
        4 );
    ]

let () =
  let ckpt = in_dir "corrupt.ckpt" in
  write_file ckpt "this is not a checkpoint\n";
  let code =
    run
      [ "run"; "--budget"; "32"; "--seed"; "3"; "--checkpoint"; ckpt;
        "--resume"; "--findings"; in_dir "f_ckpt.jsonl" ]
  in
  checkf (code = 2) "exit funnel: corrupt checkpoint under --resume -> 2 (got %d)"
    code

let () =
  if !failures > 0 then begin
    Printf.printf "fuzz_smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "fuzz_smoke: all checks passed"
