(* @engine-smoke: differential test of the fused fact-table engine
   against the retained pre-fusion reference engine, attached to
   @runtest.

   The two engines derive the same row facts in structurally different
   ways (one Ctx traversal + table lookups vs. per-stage re-derivation
   from the certificate), so every drift between them is a correctness
   bug in the fusion.  The rendered report must be byte-identical for
   every case: several corpus seeds and scales, every jobs value, with
   and without seeded corruption. *)

let rate = 0.08

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("engine-smoke: FAIL: " ^ m);
      exit 1)
    fmt

let report t = Format.asprintf "%a" Unicert.Report.all t

let run ~reference ~seed ~scale ~jobs ~corrupt =
  Unicert.Pipeline.use_reference_engine reference;
  Fun.protect
    ~finally:(fun () -> Unicert.Pipeline.use_reference_engine false)
    (fun () ->
      let mutator = if corrupt then Some (Faults.Mutator.plan ~seed ~rate ()) else None in
      let t = Unicert.Pipeline.run ~scale ~seed ?mutator ~jobs () in
      (match t.Unicert.Pipeline.faults.Unicert.Pipeline.aborted with
      | Some reason ->
          fail "run (seed=%d scale=%d jobs=%d corrupt=%b) aborted: %s" seed scale
            jobs corrupt reason
      | None -> ());
      report t)

let () =
  Obs.Progress.set_override (Some false);
  (* (seed, scale, jobs, corrupt) *)
  let cases =
    [ (7, 500, 1, false); (7, 500, 2, false); (7, 500, 4, false);
      (7, 500, 1, true); (7, 500, 2, true); (7, 500, 4, true);
      (7, 8000, 1, false); (7, 8000, 2, false); (7, 8000, 4, false);
      (7, 8000, 1, true); (3, 300, 1, false) ]
  in
  List.iter
    (fun (seed, scale, jobs, corrupt) ->
      let fused = run ~reference:false ~seed ~scale ~jobs ~corrupt in
      let reference = run ~reference:true ~seed ~scale ~jobs ~corrupt in
      if fused <> reference then
        fail
          "fused and reference reports differ (seed=%d scale=%d jobs=%d \
           corrupt=%b)"
          seed scale jobs corrupt)
    cases;
  print_endline "engine-smoke: OK"
