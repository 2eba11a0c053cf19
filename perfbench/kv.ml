(* kv-mixed: client sessions against an in-process socket cluster (3
   in-memory replicas, a one-domain Server_pool, 8 shards, live audit
   on), closed-loop with a pipelining window per session.

   Each round builds a fresh cluster, runs the generated scripts to the
   end, checks the outputs and tears the cluster down. *)

open Common
module E = Histories.Event
module T = Net.Transport

type cfg = {
  keys : int;
  ops : int;  (** per session *)
  write_share : float;  (** of the writer session; the reader only reads *)
  window : int;
  batch_max : int;
  shards : int;
  domains : int;
  client_flush : float;
      (** the client's deadline flusher; 0 (off) in measured runs: a
          flusher thread can put two batches on the wire in reverse
          order, which stalls a session (see README.md) *)
  deadline_s : float;  (** a round still waiting after this ends the run *)
}

(* window 64 keeps two full client batches in flight; at window 16 the
   tail on a 2-thread host was bimodal (p99 spread 0.4-0.6 between
   runs, against 0.12 here) *)
let cfg ~size =
  { keys = 4096; ops = (if size = Full then 12_000 else 500); write_share = 0.5;
    window = 64; batch_max = 32; shards = 8; domains = 1; client_flush = 0.;
    deadline_s = 30. }

let sessions cfg ~seed =
  Gen.mixed ~seed ~keys:cfg.keys ~ops:cfg.ops ~write_share:cfg.write_share

(* What the traced run counts at the layer boundaries. *)
type counts = {
  sp : Spans.t;
  client_frames : int Atomic.t;
  client_ops : int Atomic.t;
  frames : int Atomic.t;
  bytes : int Atomic.t;
}

let new_counts sp =
  { sp; client_frames = Atomic.make 0; client_ops = Atomic.make 0;
    frames = Atomic.make 0; bytes = Atomic.make 0 }

let sp_of c = Option.map (fun c -> c.sp) c

let frame_size msg = Net.Wire.header_size + Net.Wire.encoded_size msg

let rec first_seq = function
  | Net.Wire.Req { seq; _ } | Net.Wire.Resp { seq; _ } -> Some seq
  | Net.Wire.Batch (m :: _) -> first_seq m
  | _ -> None

let rec reqs = function
  | Net.Wire.Req _ -> 1
  | Net.Wire.Batch ms -> List.fold_left (fun n m -> n + reqs m) 0 ms
  | _ -> 0

(* The transport handed to replicas and the pool.  Traced: each send is
   a span, and the message is framed and decoded once more in a span of
   its own to time the codec. *)
let transport net c =
  let tr = Net.Socket_net.transport net in
  match c with
  | None -> tr
  | Some c ->
    let send ~src ~dst msg =
      let sess = if dst >= T.client 0 then dst - T.client 0 else -1 in
      let seq = Option.value ~default:(-1) (first_seq msg) in
      Spans.with_span c.sp "wire.codec" ~sess ~seq (fun () ->
          match Net.Wire.decode (Bytes.sub_string (Net.Wire.frame ~src msg)
                                   Net.Wire.header_size
                                   (Net.Wire.encoded_size msg)) with
          | Ok _ -> ()
          | Error e -> raise (Check_failed ("wire round trip: " ^ e)));
      Atomic.incr c.frames;
      ignore (Atomic.fetch_and_add c.bytes (frame_size msg));
      Spans.with_span c.sp "socket_net.send" ~sess ~seq (fun () ->
          tr.T.send ~src ~dst msg)
    in
    { tr with T.send }

(* One in-memory replica node, driven as the service binary drives it:
   a handler turn's emits leave as one frame per peer. *)
let start_replica net tr c r =
  let rep = Net.Replica.create ~init:0 () in
  let obuf : (T.node, Net.Wire.msg list ref) Hashtbl.t = Hashtbl.create 7 in
  let emit (dst, m) =
    match Hashtbl.find_opt obuf dst with
    | Some l -> l := m :: !l
    | None -> Hashtbl.add obuf dst (ref [ m ])
  in
  let ship () =
    let items = Hashtbl.fold (fun dst l acc -> (dst, List.rev !l) :: acc) obuf [] in
    Hashtbl.reset obuf;
    List.iter
      (fun (dst, msgs) ->
        match msgs with
        | [ m ] -> tr.T.send ~src:r ~dst m
        | msgs -> tr.T.send ~src:r ~dst (Net.Wire.Batch msgs))
      items
  in
  Net.Socket_net.listen net r (fun ~src msg ->
      Spans.maybe (sp_of c) "socket_net.handler" (fun () ->
          Spans.maybe (sp_of c) "replica.handle_emit" (fun () ->
              Net.Replica.handle_emit rep ~src ~emit msg);
          ship ()));
  rep

type cluster = {
  net : Net.Socket_net.t;
  pool : Net.Server_pool.t;
  replicas : Net.Replica.t list;
  dir : string;
  metrics : Net.Metrics.t;
}

let start_cluster cfg c =
  let dir = fresh_dir "kv" in
  let net = Net.Socket_net.create ~dir:(Filename.concat dir "s") () in
  let metrics = Net.Socket_net.metrics net in
  let tr = transport net c in
  let replica_nodes = [ 0; 1; 2 ] in
  let replicas = List.map (start_replica net tr c) replica_nodes in
  let pool =
    Net.Server_pool.create ~transport:tr ~audit:true ~metrics
      ~map:(Net.Shard_map.create ~shards:cfg.shards ())
      ~domains:cfg.domains ~me:T.server ~replicas:replica_nodes ~init:0 ()
  in
  Net.Socket_net.listen net T.server (fun ~src msg ->
      match c with
      | None -> Net.Server_pool.dispatch pool ~src msg
      | Some c ->
        let sess = if src >= T.client 0 then src - T.client 0 else -1 in
        let seq = Option.value ~default:(-1) (first_seq msg) in
        if sess >= 0 then begin
          Atomic.incr c.client_frames;
          ignore (Atomic.fetch_and_add c.client_ops (reqs msg));
          Atomic.incr c.frames;
          ignore (Atomic.fetch_and_add c.bytes (frame_size msg))
        end;
        Spans.with_span c.sp "socket_net.handler" ~sess ~seq (fun () ->
            Spans.with_span c.sp "server_pool.dispatch" ~sess ~seq (fun () ->
                Net.Server_pool.dispatch pool ~src msg)));
  List.iter
    (fun r ->
      tr.T.send ~src:T.server ~dst:r
        (Net.Wire.Engine_hello { engine = Net.Engine.kind_code Net.Engine.Abd }))
    replica_nodes;
  { net; pool; replicas; dir; metrics }

type round = {
  r_ops : int;  (** attempted *)
  answered : int;
  timed_out : bool;
  setup : float;
  wall : float;
  r_cpu : float;
  verdict : float;  (** round start to checked verdict *)
  p50 : float;
  p99 : float;
  retained : float;  (** bytes *)
  minor : float;
  major : int;
  covered : float;  (** span self time during the workload phase *)
}

(* Outputs checked apart from the live audit: results shape and values,
   per-key Fastcheck over the served history. *)
let check_outputs ~written ~sessions ~results pool =
  List.iter2
    (fun (s : Gen.session) res ->
      match res with
      | None -> ()
      | Some res ->
        check (List.length res = Array.length s.Gen.ops)
          "session %d: %d results for %d ops" s.Gen.proc (List.length res)
          (Array.length s.Gen.ops);
        List.iteri
          (fun i r ->
            match (s.Gen.ops.(i), r) with
            | (_, E.Write _), None -> ()
            | (key, E.Read), Some v ->
              check
                (v = 0
                || List.mem v
                     (Option.value ~default:[] (Hashtbl.find_opt written key)))
                "session %d read %d from key %d, never written there"
                s.Gen.proc v key
            | _ -> raise (Check_failed "result of the wrong kind"))
          res)
    sessions results;
  (match Net.Server_pool.violations pool with
   | [] -> ()
   | (k, v) :: _ ->
     raise
       (Check_failed
          (Format.asprintf "live audit: key %d: %a" k
             (Histories.Fastcheck.pp_violation Format.pp_print_int) v)))

let by_key keyed =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun (k, e) ->
      Hashtbl.replace h k (e :: Option.value ~default:[] (Hashtbl.find_opt h k)))
    keyed;
  Hashtbl.fold (fun k evs acc -> (k, List.rev evs) :: acc) h []

let fastcheck_keys sp keyed =
  Spans.maybe sp "fastcheck.check" (fun () ->
      List.iter
        (fun (k, evs) ->
          match Histories.Operation.of_events evs with
          | Error _ -> raise (Check_failed (Printf.sprintf "key %d: history not input-correct" k))
          | Ok ops -> (
            match Histories.Fastcheck.check_unique ~init:0 ops with
            | Histories.Fastcheck.Atomic _ -> ()
            | Histories.Fastcheck.Violation _ ->
              raise (Check_failed (Printf.sprintf "fastcheck: key %d not atomic" k))))
        (by_key keyed))

(* Offline replay of the served history through the online monitor;
   returns the monitors' constraint-graph nodes. *)
let monitor_replay sp keyed =
  Spans.maybe sp "monitor.replay" (fun () ->
      List.fold_left
        (fun nodes (k, evs) ->
          let mon = Histories.Monitor.create ~init:0 in
          (match Histories.Monitor.observe_all mon evs with
           | Histories.Monitor.Ok_so_far -> ()
           | Histories.Monitor.Violation _ ->
             raise (Check_failed (Printf.sprintf "monitor replay: key %d" k)));
          nodes + fst (Histories.Monitor.stats mon))
        0 (by_key keyed))

let run_round cfg c ~sessions ~written =
  let ops = Gen.total_ops sessions in
  let t_start = now () in
  let cl = start_cluster cfg c in
  let clients =
    List.map
      (fun (s : Gen.session) ->
        Net.Client.connect ~net:cl.net ~server:T.server ~batch_max:cfg.batch_max
          ~flush_every:cfg.client_flush ~proc:s.Gen.proc ())
      sessions
  in
  let setup = now () -. t_start in
  let n = List.length sessions in
  let finished = Atomic.make 0 in
  let ends = Array.make n 0. in
  let results = Array.make n None in
  let covered0 = match c with Some c -> Spans.covered c.sp | None -> 0. in
  let g0 = Gc.quick_stat () in
  let c0 = cpu () and t0 = now () in
  let threads =
    List.mapi
      (fun i ((s : Gen.session), client) ->
        Thread.create
          (fun () ->
            (try
               results.(i) <-
                 Some
                   (Net.Client.run_keyed ~window:cfg.window client
                      (Array.to_list s.Gen.ops))
             with Invalid_argument _ -> ());
            ends.(i) <- now ();
            Atomic.incr finished)
          ())
      (List.combine sessions clients)
  in
  while Atomic.get finished < n && now () -. t0 < cfg.deadline_s do
    Thread.delay 0.01
  done;
  let timed_out = Atomic.get finished < n in
  (* a session still waiting at the deadline is closed, which fails its
     blocked await; its unanswered operations count as failed *)
  if timed_out then List.iter Net.Client.close clients;
  List.iter Thread.join threads;
  let c1 = cpu () in
  let g1 = Gc.quick_stat () in
  let covered =
    (match c with Some c -> Spans.covered c.sp | None -> 0.) -. covered0
  in
  let wall = Array.fold_left Float.max t0 ends -. t0 in
  let rtt = Net.Metrics.(summarise (histogram cl.metrics "client_rtt")) in
  if not timed_out then List.iter Net.Client.close clients;
  Net.Server_pool.stop cl.pool;
  Net.Socket_net.shutdown cl.net;
  let keyed = Net.Server_pool.keyed_history cl.pool in
  let answered = rtt.Net.Metrics.count in
  check_outputs ~written ~sessions ~results:(Array.to_list results) cl.pool;
  fastcheck_keys (sp_of c) keyed;
  if not timed_out then
    check (Net.Server_pool.ops_served cl.pool = ops)
      "%d ops served of %d" (Net.Server_pool.ops_served cl.pool) ops;
  let verdict = now () -. t_start in
  let retained =
    float_of_int
      (Obj.reachable_words (Obj.repr (cl.pool, cl.replicas)) * (Sys.word_size / 8))
  in
  let layers =
    match c with
    | None -> []
    | Some c ->
      let nodes = monitor_replay (Some c.sp) keyed in
      let q = Net.Server_pool.quorum_stats cl.pool in
      let h name = Net.Metrics.(summarise (histogram cl.metrics name)) in
      [
        ("monitor.nodes", float_of_int nodes);
        ("engine.msgs", float_of_int q.Net.Engine.messages_sent);
        ("engine.retransmissions", float_of_int q.Net.Engine.retransmissions);
        ("server.op_p50_us", (h "server_op").Net.Metrics.p50 *. 1e6);
        ("engine.phase1_p50_us", (h "quorum_phase1").Net.Metrics.p50 *. 1e6);
        ("engine.phase2_p50_us", (h "quorum_phase2").Net.Metrics.p50 *. 1e6);
      ]
  in
  rm_rf cl.dir;
  ( {
      r_ops = ops;
      answered;
      timed_out;
      setup;
      wall;
      r_cpu = c1 -. c0;
      verdict;
      p50 = rtt.Net.Metrics.p50;
      p99 = rtt.Net.Metrics.p99;
      retained;
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
      covered;
    },
    layers )

(* The kv-mixed round with the clients' deadline flusher on at
   [flush_every] seconds and a short deadline: counts the rounds in
   which a session stalled, and the operations left unanswered. *)
let flusher_stall ~runs ~flush_every =
  let cfg =
    { (cfg ~size:Full) with
      ops = 4000; client_flush = flush_every; deadline_s = 5. }
  in
  let stalls = ref 0 in
  for seed = 1 to runs do
    let sessions = sessions cfg ~seed in
    let written = Gen.written sessions in
    let r, _ =
      try run_round cfg None ~sessions ~written
      with Check_failed s -> failwith ("flusher-stall: " ^ s)
    in
    if r.timed_out then incr stalls;
    Printf.printf "run %d: %s, %d of %d ops answered\n%!" seed
      (if r.timed_out then "STALLED" else "completed")
      r.answered r.r_ops
  done;
  Printf.printf "flusher-stall: %d of %d runs stalled (flush_every %g s)\n"
    !stalls runs flush_every;
  if !stalls > 0 then 1 else 0

(* A round's end-to-end figures by name. *)
let figures r =
  let per_op x = x /. float_of_int (max 1 r.answered) in
  [
    ("setup_s", r.setup);
    ("ops_per_s", float_of_int r.answered /. r.wall);
    ("latency_p50_us", r.p50 *. 1e6);
    ("latency_p99_us", r.p99 *. 1e6);
    ("cpu_us_per_op", per_op r.r_cpu *. 1e6);
    ("retained_bytes_per_op", per_op r.retained);
    ("verdict_s", r.verdict);
  ]

let run ~seed ~seconds ~trace ~size =
  let cfg = cfg ~size in
  let sessions = sessions cfg ~seed in
  let written = Gen.written sessions in
  let sp = if trace then Some (Spans.create ()) else None in
  let stopped = ref false in
  (* traced runs alternate untraced and traced rounds: the per-layer
     figures come from the traced ones, the overhead from the pair *)
  let plain = ref [] and traced = ref [] and order = ref [] in
  let correct, notes =
    try
      ignore
        (Common.rounds ~seconds ~min_rounds:(if trace then 2 else 1) (fun i ->
             if !stopped then None
             else begin
               let c =
                 match sp with
                 | Some sp when i mod 2 = 1 -> Some (new_counts sp)
                 | _ -> None
               in
               let (r, layers), share =
                 with_steal (fun () -> run_round cfg c ~sessions ~written)
               in
               order := (r, share, c = None) :: !order;
               (match c with
                | Some c -> traced := (r, layers, c) :: !traced
                | None -> plain := r :: !plain);
               if r.timed_out then stopped := true;
               Some ()
             end));
      (true, [])
    with Check_failed s -> (false, [ s ])
  in
  let plain = List.rev !plain and traced = List.rev !traced in
  let order = List.rev !order in
  let all = List.map (fun (r, _, _) -> r) order in
  let attempted = List.fold_left (fun n r -> n + r.r_ops) 0 all in
  let answered = List.fold_left (fun n r -> n + r.answered) 0 all in
  let med rs f = median_l (List.map f rs) in
  (* a run that is all traced rounds reports those *)
  let e2e, round_notes =
    e2e_report
      (List.map (fun (r, share, untraced) -> (figures r, share, untraced || plain = []))
         order)
  in
  let layers =
    match (sp, traced) with
    | Some sp, (_ :: _ as tr) ->
      let rs = List.map (fun (r, _, _) -> r) tr in
      let ops = float_of_int (List.fold_left (fun n r -> n + r.answered) 0 rs) in
      let sum name =
        List.fold_left
          (fun acc (_, l, _) -> acc +. Option.value ~default:0. (List.assoc_opt name l))
          0. tr
      in
      let cnt f = float_of_int (List.fold_left (fun n (_, _, c) -> n + Atomic.get (f c)) 0 tr) in
      let us name = let _, total, _ = Spans.totals sp name in total /. ops *. 1e6 in
      let self name = let _, _, self = Spans.totals sp name in self /. ops *. 1e6 in
      let med_l name = median_l (List.map (fun (_, l, _) -> List.assoc name l) tr) in
      let cpu_traced = med rs (fun r -> r.r_cpu /. float_of_int (max 1 r.answered) *. 1e6) in
      let cpu_plain =
        match plain with
        | [] -> cpu_traced
        | _ -> med plain (fun r -> r.r_cpu /. float_of_int (max 1 r.answered) *. 1e6)
      in
      let covered = List.fold_left (fun acc r -> acc +. r.covered) 0. rs in
      [
        ("client.ops_per_frame", cnt (fun c -> c.client_ops) /. Float.max 1. (cnt (fun c -> c.client_frames)));
        ("wire.codec_us_per_op", us "wire.codec");
        ("wire.frames_per_op", cnt (fun c -> c.frames) /. ops);
        ("wire.bytes_per_op", cnt (fun c -> c.bytes) /. ops);
        ("socket_net.send_us_per_op", us "socket_net.send");
        ("socket_net.handler_us_per_op", self "socket_net.handler");
        ("server_pool.dispatch_us_per_op", us "server_pool.dispatch");
        ("server.op_p50_us", med_l "server.op_p50_us");
        ("engine.msgs_per_op", sum "engine.msgs" /. ops);
        ("engine.retransmissions_per_op", sum "engine.retransmissions" /. ops);
        ("engine.phase1_p50_us", med_l "engine.phase1_p50_us");
        ("engine.phase2_p50_us", med_l "engine.phase2_p50_us");
        ("replica.handle_us_per_op", us "replica.handle_emit");
        ("monitor.us_per_op", us "monitor.replay");
        ("monitor.nodes_per_op", sum "monitor.nodes" /. ops);
        ("fastcheck.us_per_op", us "fastcheck.check");
        ("gc.minor_words_per_op", med rs (fun r -> r.minor /. float_of_int (max 1 r.answered)));
        ("gc.major_collections_per_kop",
         med rs (fun r -> float_of_int r.major /. float_of_int (max 1 r.answered) *. 1000.));
        ("trace.unattributed_cpu_us_per_op",
         Float.max 0. (cpu_traced -. (covered /. ops *. 1e6)));
        ("trace.overhead_cpu_us_per_op", cpu_traced -. cpu_plain);
        ("trace.spans_per_op", float_of_int (Spans.count sp) /. ops);
      ]
    | _ -> []
  in
  ( {
      correct;
      attempted;
      failed = attempted - answered;
      metrics = e2e;
      notes =
        notes
        @ [
            Printf.sprintf
              "kv-mixed: %d rounds of %d ops (%d sessions, %d keys, window %d, \
               batch %d, %d shards, %d domain), %d answered%s"
              (List.length all) (Gen.total_ops sessions) (List.length sessions)
              cfg.keys cfg.window cfg.batch_max cfg.shards cfg.domains answered
              (if !stopped then ", stopped at the round deadline" else "");
          ]
        @ round_notes;
    },
    layers,
    sp )
