(* The benchmark's entry point.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe selftest
     perfbench.exe flusher-stall RUNS FLUSH_EVERY_S

   A run measures one workload for S seconds of whole rounds, checks
   every round's outputs, prints a human-readable report and, as its
   last line, one JSON object: with --trace 0 every end-to-end metric,
   with --trace 1 every per-layer metric of the traced run (0 where the
   workload does not reach the layer). *)

open Common

let workloads = [ "kv-mixed"; "sim-faults"; "mc-bloom" ]

let end_to_end = List.map fst Common.end_to_end

(* name, unit: every per-layer metric of BENCHMARK.json, in order *)
let per_layer =
  [
    ("client.ops_per_frame", "count");
    ("wire.codec_us_per_op", "us");
    ("wire.frames_per_op", "count");
    ("wire.bytes_per_op", "B");
    ("socket_net.send_us_per_op", "us");
    ("socket_net.handler_us_per_op", "us");
    ("server_pool.dispatch_us_per_op", "us");
    ("server.op_p50_us", "us");
    ("engine.msgs_per_op", "count");
    ("engine.retransmissions_per_op", "count");
    ("engine.phase1_p50_us", "us");
    ("engine.phase2_p50_us", "us");
    ("replica.handle_us_per_op", "us");
    ("storage.syncs_per_op", "count");
    ("storage.entries_per_sync", "count");
    ("storage.bytes_per_op", "B");
    ("monitor.us_per_op", "us");
    ("monitor.nodes_per_op", "count");
    ("fastcheck.us_per_op", "us");
    ("sim_net.steps_per_op", "count");
    ("sim_net.us_per_step", "us");
    ("sim_net.ops_per_vt", "1/vt");
    ("sim_net.vt_latency_p50", "vt");
    ("sim_net.vt_latency_p99", "vt");
    ("explorer.dfs_us_per_exec", "us");
    ("explorer.leaf_us_per_exec", "us");
    ("explorer.executions", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_kop", "count");
    ("trace.unattributed_cpu_us_per_op", "us");
    ("trace.overhead_cpu_us_per_op", "us");
    ("trace.spans_per_op", "count");
  ]

let run_workload ~workload ~seed ~seconds ~trace ~size =
  match workload with
  | "mc-bloom" -> Mc.run ~seed ~seconds ~trace ~size
  | "kv-mixed" -> Kv.run ~seed ~seconds ~trace ~size
  | "sim-faults" -> Sim.run ~seed ~seconds ~trace ~size
  | w -> invalid_arg ("unknown workload " ^ w)

let finish ~workload ~seed ~trace ~stolen (r, layers, spans) =
  List.iter (fun s -> Printf.printf "# %s\n" s) r.notes;
  (* host interference no figure of the program can explain *)
  Printf.printf "# hypervisor steal during the run: %.2f CPU-seconds\n" stolen;
  let r =
    if not trace then r
    else begin
      List.iter
        (fun { name; value; unit } ->
          Printf.printf "# untraced %s = %s %s\n" name (json_float value) unit)
        r.metrics;
      (match spans with
       | Some sp ->
         mkdir_p scratch_root;
         let path =
           Filename.concat scratch_root
             (Printf.sprintf "trace-%s-%d.jsonl" workload seed)
         in
         Spans.write_jsonl sp path;
         Printf.printf "# %d spans recorded, the first %d written to %s\n"
           (Spans.count sp)
           (min (Spans.count sp) Spans.cap)
           path
       | None -> ());
      {
        r with
        metrics =
          List.map
            (fun (name, unit) ->
              m name unit
                (Option.value ~default:0. (List.assoc_opt name layers)))
            per_layer;
      }
    end
  in
  print_endline (result_json r);
  if r.correct then 0 else 1

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench.exe selftest\n\
    \       perfbench.exe flusher-stall RUNS FLUSH_EVERY_S";
  exit 2

let main argv =
  match Array.to_list argv with
  | [ _; "selftest" ] -> Selftest.run run_workload ~end_to_end ~per_layer ~workloads
  | [ _; "flusher-stall"; runs; flush_every ] -> (
    match (int_of_string_opt runs, float_of_string_opt flush_every) with
    | Some runs, Some flush_every -> Kv.flusher_stall ~runs ~flush_every
    | _ -> usage ())
  | _ :: args ->
    let rec parse acc = function
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
        ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let workload = get "workload" in
    if not (List.mem workload workloads) then usage ();
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace = int "trace" = 1 in
    let s0 = steal () in
    let out = run_workload ~workload ~seed ~seconds ~trace ~size:Full in
    finish ~workload ~seed ~trace ~stolen:(steal () -. s0) out
  | [] -> usage ()

let () = exit (Fun.protect ~finally:cleanup (fun () -> main Sys.argv))
