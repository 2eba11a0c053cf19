(* sim-faults: the kv-mixed traffic, fed to the seeded simulator as keyed
   xprocesses, over durable simulated disks with group commit, lossy
   replica links and one replica that crashes with amnesia and restarts
   mid-run.  Single-threaded and deterministic: every count repeats
   exactly for a seed, which the run checks by comparing each round
   with the first. *)

open Common
module E = Histories.Event
module S = Net.Sim_run

type cfg = {
  keys : int;
  ops : int;  (** per session *)
  window : int;
  shards : int;
  replicas : int;
  faults : Net.Sim_net.faults;
  group_commit : Net.Storage.commit_config;
  snapshot_every : int;
  fates : (float * Harness.Failure.net_fate) list;
}

let cfg ~size =
  let full = size = Full in
  (* the crash and restart fall inside the run's traffic: at these
     sizes the last response arrives after about 4100 (full) and 220
     (small) virtual time units *)
  let crash, restart = if full then (600., 1200.) else (30., 60.) in
  {
    keys = 4096;
    ops = (if full then 3000 else 150);
    window = 16;
    shards = 8;
    replicas = 3;
    faults =
      Net.Sim_net.lossy ~drop:0.05 ~duplicate:0.02 ~min_delay:0.5 ~max_delay:2.0 ();
    group_commit = { Net.Storage.batch_max = 8; flush_every = 0.5 };
    snapshot_every = 256;
    fates =
      [ (crash, Harness.Failure.Crash_amnesia 1); (restart, Harness.Failure.Restart 1) ];
  }

let xprocesses sessions =
  List.map
    (fun (s : Gen.session) ->
      {
        S.xproc = s.Gen.proc;
        xscript = Array.to_list (Array.map (fun (k, op) -> S.Keyed (k, op)) s.Gen.ops);
      })
    sessions

(* Figures that must repeat exactly from one round to the next. *)
type exact = {
  completed : int;
  steps : int;
  last_response : float;
  vt_p50 : float;
  vt_p99 : float;
  frames : int;
  bytes : int;
  msgs : int;
  retransmissions : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  disk_appends : int;  (** backend appends: one write per committed batch *)
  entries : int;  (** entries committed by the live stores *)
  commits : int;  (** batches the live stores committed *)
  disk_bytes : int;  (** WAL and snapshot bytes on the disks at the end *)
  retained : int;  (** words *)
  minor : float;  (** minor words allocated; not compared between rounds *)
}

type round = {
  exact : exact;
  setup : float;
  run_wall : float;
  run_cpu : float;
  verdict : float;
  lat_p50 : float;  (** wall: request sent to answer sent *)
  lat_p99 : float;
  major : int;
  keyed : (int * int E.t) list;
}

let rec walk f = function
  | Net.Wire.Batch ms -> List.iter (walk f) ms
  | m -> f m

(* At quiescence every store has committed what it took in.  A store
   reopened from each replica's disk recovers exactly the live
   replica's contents, and every written key is on a majority of the
   disks. *)
let check_disks (cl : S.cluster) ~written =
  let reopened =
    List.map
      (fun r ->
        let live = cl.S.replica_of r in
        Option.iter
          (fun st ->
            check (Net.Storage.pending st = 0)
              "replica %d: %d entries never committed" r (Net.Storage.pending st))
          (Net.Replica.storage live);
        let got =
          Net.Storage.contents
            (Net.Storage.create (Net.Storage.Disk.backend cl.S.disks.(r)))
        in
        check (got = Net.Replica.contents live)
          "replica %d: store reopened from its disk differs from the live replica" r;
        got)
      cl.S.replica_nodes
  in
  Hashtbl.iter
    (fun key _ ->
      let on_disk contents =
        List.exists
          (fun i -> List.mem_assoc (Net.Shard_map.global_reg key i) contents)
          (List.init Net.Shard_map.regs_per_key Fun.id)
      in
      let n = List.length (List.filter on_disk reopened) in
      check (2 * n > List.length reopened) "key %d written but on %d disks only" key n)
    written

let run_round cfg ~seed ~sessions ~written ~sp =
  let t_start = now () in
  let frames = ref 0 and bytes = ref 0 in
  let sent = Hashtbl.create 64 in
  let lats = ref [] in
  (* the send tap: byte accounting and wall-clock latency from a
     request's send to the send of its answer *)
  let measure ~src ~dst msg =
    let t = now () in
    incr frames;
    bytes := !bytes + Net.Wire.header_size + Net.Wire.encoded_size msg;
    walk
      (function
        | Net.Wire.Req { seq; _ } -> Hashtbl.replace sent (src, seq) t
        | Net.Wire.Resp { seq; _ } -> (
          match Hashtbl.find_opt sent (dst, seq) with
          | Some t0 ->
            Hashtbl.remove sent (dst, seq);
            lats := (t -. t0) :: !lats
          | None -> ())
        | _ -> ())
      msg
  in
  let cl =
    S.build ~faults:cfg.faults ~replicas:cfg.replicas ~window:cfg.window
      ~shards:cfg.shards ~keys:cfg.keys ~durable:true
      ~snapshot_every:cfg.snapshot_every ~group_commit:cfg.group_commit
      ~xprocesses:(xprocesses sessions) ~measure ~seed ~init:0 ~processes:[] ()
  in
  S.schedule_fates cl cfg.fates;
  let setup = now () -. t_start in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu () and t0 = now () in
  let steps =
    Spans.maybe sp "sim_net.run" (fun () ->
        Net.Sim_net.run ~max_steps:50_000_000 cl.S.net)
  in
  let t1 = now () and c1 = cpu () in
  let g1 = Gc.quick_stat () in
  let o = S.collect cl ~steps in
  check (o.S.completed = o.S.expected) "%d of %d ops completed" o.S.completed
    o.S.expected;
  check (o.S.monitor_violation = None) "live audit: %s"
    (Option.value ~default:"" o.S.monitor_violation);
  check o.S.fastcheck_ok "Sim_run's per-key fastcheck failed";
  let keyed = Net.Server.keyed_history cl.S.server in
  (* reads return 0 or a value the inputs wrote to that key *)
  List.iter
    (fun (key, ev) ->
      match ev with
      | E.Respond (p, Some v) ->
        check
          (v = 0 || List.mem v (Option.value ~default:[] (Hashtbl.find_opt written key)))
          "processor %d read %d from key %d, never written there" p v key
      | _ -> ())
    keyed;
  let lat = Array.of_list !lats in
  (* virtual-time latency of each op, its Invoke paired with the Respond
     of the same processor on the same key (a processor has one op per
     key in flight; pairing by processor alone, as [o.latencies] does,
     is wrong once a window spans keys) *)
  let vt =
    let open_ = Hashtbl.create 64 in
    List.fold_left
      (fun acc (t, (key, ev)) ->
        match ev with
        | E.Invoke (p, _) -> Hashtbl.replace open_ (p, key) t; acc
        | E.Respond (p, _) -> (
          match Hashtbl.find_opt open_ (p, key) with
          | Some t0 -> Hashtbl.remove open_ (p, key); (t -. t0) :: acc
          | None -> acc))
      []
      (Net.Server.timed_keyed_history cl.S.server)
    |> Array.of_list
  in
  let last_response =
    List.fold_left
      (fun acc (t, ev) -> match ev with E.Respond _ -> Float.max acc t | _ -> acc)
      0. o.S.timed
  in
  let retained = Obj.reachable_words (Obj.repr cl) in
  let stores =
    List.filter_map (fun r -> Net.Replica.storage (cl.S.replica_of r)) cl.S.replica_nodes
  in
  let stat f = List.fold_left (fun n st -> n + f (Net.Storage.stats st)) 0 stores in
  let exact =
    {
      completed = o.S.completed;
      steps;
      last_response;
      vt_p50 = quantile vt 0.5;
      vt_p99 = quantile vt 0.99;
      frames = !frames;
      bytes = !bytes;
      msgs = o.S.quorum.Net.Engine.messages_sent;
      retransmissions = o.S.quorum.Net.Engine.retransmissions;
      delivered = o.S.net.Net.Sim_net.delivered;
      dropped = o.S.net.Net.Sim_net.dropped;
      duplicated = o.S.net.Net.Sim_net.duplicated;
      disk_appends =
        Array.fold_left (fun n d -> n + Net.Storage.Disk.appends d) 0 cl.S.disks;
      entries = stat (fun s -> s.Net.Storage.appends);
      commits = stat (fun s -> s.Net.Storage.batch_commits);
      disk_bytes =
        Array.fold_left
          (fun n d ->
            n + Net.Storage.Disk.wal_size d
            + Option.fold ~none:0 ~some:String.length (Net.Storage.Disk.snapshot_bytes d))
          0 cl.S.disks;
      retained;
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    }
  in
  check_disks cl ~written;
  {
    exact;
    setup;
    run_wall = t1 -. t0;
    run_cpu = c1 -. c0;
    verdict = now () -. t_start;
    lat_p50 = quantile lat 0.5;
    lat_p99 = quantile lat 0.99;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    keyed;
  }

(* A round's end-to-end figures by name. *)
let figures r =
  let ops = float_of_int r.exact.completed in
  [
    ("setup_s", r.setup);
    ("ops_per_s", ops /. r.run_wall);
    ("latency_p50_us", r.lat_p50 *. 1e6);
    ("latency_p99_us", r.lat_p99 *. 1e6);
    ("cpu_us_per_op", r.run_cpu /. ops *. 1e6);
    ("retained_bytes_per_op", float_of_int (r.exact.retained * (Sys.word_size / 8)) /. ops);
    ("verdict_s", r.verdict);
  ]

let run ~seed ~seconds ~trace ~size =
  let cfg = cfg ~size in
  let sessions = Gen.mixed ~seed ~keys:cfg.keys ~ops:cfg.ops ~write_share:0.5 in
  let written = Gen.written sessions in
  let sp = if trace then Some (Spans.create ()) else None in
  let order = ref [] and first = ref None in
  let correct, notes =
    try
      ignore
        (Common.rounds ~seconds ~min_rounds:3 (fun i ->
             let is_traced = trace && i mod 2 = 0 && i > 0 in
             let r, share =
               with_steal (fun () ->
                   run_round cfg ~seed ~sessions ~written
                     ~sp:(if is_traced then sp else None))
             in
             (* every round, traced or not, reproduces the first round of
                the process exactly.  The allocation count is the one
                figure left out: the first rounds allocate less while the
                heap grows, and it settles after one or two rounds at a
                level about 0.7% higher *)
             (match !first with
              | None -> first := Some r.exact
              | Some a ->
                let b = r.exact in
                check ({ a with minor = 0. } = { b with minor = 0. })
                  "round %d differs from round 0 with the same seed: \
                   steps %d/%d bytes %d/%d retained %d/%d disk bytes %d/%d"
                  i a.steps b.steps a.bytes b.bytes a.retained b.retained
                  a.disk_bytes b.disk_bytes);
             (* round 0 warms the heap up and is not reported *)
             order := (r, share, (i > 0 && not is_traced)) :: !order;
             Some ()));
      (true, [])
    with Check_failed s -> (false, [ s ])
  in
  let order = List.rev !order in
  let all = List.map (fun (r, _, _) -> r) order in
  let plain = List.filter_map (fun (r, _, rep) -> if rep then Some r else None) order in
  let traced =
    List.filteri (fun i _ -> i > 0) order
    |> List.filter_map (fun (r, _, rep) -> if rep then None else Some r)
  in
  let ops r = float_of_int r.exact.completed in
  (* a round that returns has every op completed (checked) *)
  let attempted = List.length all * Gen.total_ops sessions in
  let answered = List.fold_left (fun n r -> n + r.exact.completed) 0 all in
  let med rs f = median_l (List.map f rs) in
  let e2e, round_notes = e2e_report (List.map (fun (r, s, rep) -> (figures r, s, rep)) order) in
  let layers =
    match (sp, traced) with
    | Some sp, (r :: _ as rs) ->
      let x = r.exact in
      let n = ops r in
      (* replay and re-check the served history of the traced rounds *)
      let nodes = ref 0 in
      List.iter
        (fun r ->
          nodes := !nodes + Kv.monitor_replay (Some sp) r.keyed;
          Kv.fastcheck_keys (Some sp) r.keyed)
        rs;
      let total_ops = float_of_int (List.length rs) *. n in
      let us name = let _, t, _ = Spans.totals sp name in t /. total_ops *. 1e6 in
      let cpu_traced = med rs (fun r -> r.run_cpu /. ops r *. 1e6) in
      let cpu_plain =
        match plain with [] -> cpu_traced | _ -> med plain (fun r -> r.run_cpu /. ops r *. 1e6)
      in
      [
        ("wire.frames_per_op", float_of_int x.frames /. n);
        ("wire.bytes_per_op", float_of_int x.bytes /. n);
        ("engine.msgs_per_op", float_of_int x.msgs /. n);
        ("engine.retransmissions_per_op", float_of_int x.retransmissions /. n);
        ("storage.syncs_per_op", float_of_int x.disk_appends /. n);
        ("storage.entries_per_sync", float_of_int x.entries /. float_of_int (max 1 x.commits));
        ("storage.bytes_per_op", float_of_int x.disk_bytes /. n);
        ("monitor.us_per_op", us "monitor.replay");
        ("monitor.nodes_per_op", float_of_int !nodes /. total_ops);
        ("fastcheck.us_per_op", us "fastcheck.check");
        ("sim_net.steps_per_op", float_of_int x.steps /. n);
        ("sim_net.us_per_step", med rs (fun r -> r.run_wall /. float_of_int r.exact.steps *. 1e6));
        ("sim_net.ops_per_vt", n /. x.last_response);
        ("sim_net.vt_latency_p50", x.vt_p50);
        ("sim_net.vt_latency_p99", x.vt_p99);
        ("gc.minor_words_per_op", med rs (fun r -> r.exact.minor /. ops r));
        ("gc.major_collections_per_kop", med rs (fun r -> float_of_int r.major /. ops r *. 1000.));
        (* the simulator runs server, engines and replicas in one loop:
           its span is the only layer boundary outside the program *)
        ("trace.unattributed_cpu_us_per_op",
         Float.max 0. (cpu_traced -. us "sim_net.run"));
        ("trace.overhead_cpu_us_per_op", cpu_traced -. cpu_plain);
        ("trace.spans_per_op", float_of_int (Spans.count sp) /. total_ops);
      ]
    | _ -> []
  in
  let notes =
    notes
    @ (match all with
       | r :: _ ->
         let x = r.exact in
         let n = ops r in
         [
           Printf.sprintf
             "sim-faults: %d rounds of %d ops (%d keys, window %d, %d shards, \
              %d replicas), every count identical across rounds"
             (List.length all) (Gen.total_ops sessions) cfg.keys cfg.window
             cfg.shards cfg.replicas;
           Printf.sprintf
             "exact: wire_bytes_per_op %.4f ops_per_vt %.6f vt_latency_p50 %.4f \
              vt_latency_p99 %.4f msgs_per_op %.4f retransmissions_per_op %.4f \
              steps_per_op %.4f storage_entries_per_sync %.4f storage_bytes_per_op \
              %.4f minor_words_per_op %.2f retained_bytes_per_op %.2f; last \
              response at %.1f vt"
             (float_of_int x.bytes /. n) (n /. x.last_response) x.vt_p50 x.vt_p99
             (float_of_int x.msgs /. n)
             (float_of_int x.retransmissions /. n)
             (float_of_int x.steps /. n)
             (float_of_int x.entries /. float_of_int (max 1 x.commits))
             (float_of_int x.disk_bytes /. n) (x.minor /. n)
             (float_of_int (x.retained * (Sys.word_size / 8)) /. n)
             x.last_response;
         ]
       | [] -> [])
    @ round_notes
  in
  ( {
      correct;
      attempted;
      failed = attempted - answered;
      metrics = e2e;
      notes;
    },
    layers,
    sp )
