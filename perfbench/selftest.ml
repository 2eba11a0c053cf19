(* Small-size self-test: every workload end to end, untraced and
   traced, with all its output checks, in seconds.  Fails when a run's
   checks fail, when an operation fails, or when a reported metric is
   missing or not a positive finite number (per-layer metrics may be 0
   where the workload does not reach the layer). *)

open Common

let run run_workload ~end_to_end ~per_layer ~workloads =
  let failures = ref 0 and runs = ref 0 and t0 = now () in
  let fail fmt =
    Printf.ksprintf (fun s -> incr failures; Printf.printf "FAIL %s\n%!" s) fmt
  in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let r, layers, _ =
            run_workload ~workload ~seed:1 ~seconds:0. ~trace ~size:Small
          in
          let tag = Printf.sprintf "%s trace=%b" workload trace in
          incr runs;
          if not r.correct then fail "%s: %s" tag (String.concat "; " r.notes);
          if r.failed <> 0 || r.attempted < 1 then
            fail "%s: %d of %d operations failed" tag r.failed r.attempted;
          let ok x = Float.is_finite x && x > 0. in
          List.iter
            (fun name ->
              match List.find_opt (fun mt -> mt.name = name) r.metrics with
              | Some mt when ok mt.value -> ()
              | Some mt -> fail "%s: %s = %g" tag name mt.value
              | None -> fail "%s: %s missing" tag name)
            end_to_end;
          if trace then begin
            List.iter
              (fun (name, _) ->
                if not (List.mem_assoc name per_layer) then
                  fail "%s: unknown per-layer metric %s" tag name)
              layers;
            if layers = [] then fail "%s: no per-layer metric" tag
          end)
        [ false; true ])
    workloads;
  if !failures = 0 then begin
    Printf.printf "selftest: PASS (%d runs, %.1f s)\n" !runs (now () -. t0);
    0
  end
  else (Printf.printf "selftest: %d failures\n" !failures; 1)
