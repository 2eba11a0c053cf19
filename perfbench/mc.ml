(* mc-bloom: the exhaustive interleaving checker over Bloom's two-writer
   register.  Each round runs [Explorer.find_violation] on the same
   bounded configuration to its verdict; one further pass enumerates
   the executions with [Explorer.explore] and a leaf check of the
   benchmark's own, which gives the execution count, a verdict computed
   apart from [find_violation], and the time per execution. *)

open Common
module E = Histories.Event
module X = Modelcheck.Explorer
module Vm = Registers.Vm

let probe = Registers.Tagged.initial 0

(* Primitive accesses of one process's script, counted by walking the
   protocol's programs. *)
let accesses built (p : int Vm.process) =
  List.fold_left
    (fun n op ->
      n
      +
      match op with
      | E.Write v -> Vm.steps ~probe (built.Vm.write ~proc:p.Vm.proc v)
      | E.Read -> Vm.steps ~probe (built.Vm.read ~proc:p.Vm.proc))
    0 p.Vm.script

(* (k1 + ... + kp)! / (k1! ... kp!) as a product of binomials; each
   partial product in [binom] is itself a binomial, so the division is
   exact. *)
let multinomial ks =
  let binom n k =
    let r = ref 1 in
    for i = 1 to k do
      r := !r * (n - k + i) / i
    done;
    !r
  in
  fst
    (List.fold_left
       (fun (acc, n) k ->
         let n = n + k in
         (acc * binom n k, n))
       (1, 0) ks)

let build ~seed =
  (Core.Protocol.bloom ~init:0 ~other_init:0 (), Gen.bloom_processes ~seed)

(* Set-up is a few microseconds, below the clock's resolution: time a
   block of builds and report the time of one. *)
let setup_block = 2000

let time_setup ~seed =
  let t0 = now () in
  for _ = 1 to setup_block do
    ignore (Sys.opaque_identity (build ~seed))
  done;
  (now () -. t0) /. float_of_int setup_block

let leaf_atomic trace =
  match Histories.Operation.of_events (Vm.history_of_trace trace) with
  | Error _ -> false
  | Ok ops -> Histories.Fastcheck.is_atomic ~init:0 ops

(* The leaf check split into its steps, each in its own span. *)
let leaf_atomic_traced sp trace =
  Spans.with_span sp "explorer.leaf" (fun () ->
      let h = Spans.with_span sp "vm.history" (fun () -> Vm.history_of_trace trace) in
      match
        Spans.with_span sp "operation.of_events" (fun () ->
            Histories.Operation.of_events h)
      with
      | Error _ -> false
      | Ok ops ->
        Spans.with_span sp "fastcheck.is_atomic" (fun () ->
            Histories.Fastcheck.is_atomic ~init:0 ops))

(* The Figure 5 flat tournament is not atomic: the same search must
   find its violation, or the checker proves nothing. *)
let negative_control () =
  let procs =
    [
      { Vm.proc = 0; script = [ E.Write 10 ] };
      { Vm.proc = 1; script = [ E.Write 20 ] };
      { Vm.proc = 3; script = [ E.Write 30 ] };
      { Vm.proc = 4; script = [ E.Read ] };
    ]
  in
  match
    X.find_violation ~init:0 (Core.Tournament.flat ~init:0 ~other_init:0 ()) procs
  with
  | Some _ -> ()
  | None -> raise (Check_failed "figure 5 tournament: no violation found")

type pass = {
  executions : int;
  bad_leaves : int;
  blocks : float array;  (** wall time per execution, per block *)
  pass_cpu : float;
  trace_bytes : float;
      (** bytes reachable from the trace the explorer hands to the leaf
          check, mean over the first execution of every block *)
}

(* Executions are timed in blocks of this many consecutive ones, about
   3 ms: one execution is close to the wall clock's resolution at
   today's epoch (about 0.24 us), and a block this long holds several
   minor collections, so block times do not split into two groups by
   whether a collection fell inside. *)
let block = 1024

(* One enumeration with the benchmark's own leaf check: the execution
   count and a verdict computed apart from [find_violation]. *)
let explore_pass ?spans ~seed ~expected () =
  let built, procs = build ~seed in
  let times = Array.make ((expected / block) + 1) 0. in
  let i = ref 0 and bad = ref 0 and words = ref 0 and samples = ref 0 in
  let atomic =
    match spans with Some sp -> leaf_atomic_traced sp | None -> leaf_atomic
  in
  let c0 = cpu () in
  times.(0) <- now ();
  let run () =
    X.explore built procs ~on_leaf:(fun trace ->
        if not (atomic trace) then incr bad;
        incr i;
        if !i mod block = 0 && !i <= expected then times.(!i / block) <- now ();
        (* sized after the block's clock reading: a few words' walk
           that the next block absorbs *)
        if !i mod block = 1 then begin
          words := !words + Obj.reachable_words (Obj.repr trace);
          incr samples
        end)
  in
  let n = Spans.maybe spans "explorer.explore" run in
  let pass_cpu = cpu () -. c0 in
  check (n = expected) "explore enumerated %d executions, the multinomial is %d"
    n expected;
  check (!bad = 0) "%d executions not atomic" !bad;
  { executions = n; bad_leaves = !bad; pass_cpu;
    trace_bytes =
      float_of_int (!words * (Sys.word_size / 8)) /. float_of_int (max 1 !samples);
    blocks =
      Array.init (expected / block) (fun k ->
          (times.(k + 1) -. times.(k)) /. float_of_int block) }

type round = {
  setup : float;
  verdict : float;
  cpu : float;
  minor : float;
  major : int;
  pass : pass;
  traced : bool;
}

let round ~seed ~expected ~spans =
  let setup = time_setup ~seed in
  let built, procs = build ~seed in
  let g0 = Gc.quick_stat () in
  let c0 = cpu () and t0 = now () in
  let v = X.find_violation ~init:0 built procs in
  let t1 = now () and c1 = cpu () in
  let g1 = Gc.quick_stat () in
  (match v with
   | None -> ()
   | Some v ->
     raise
       (Check_failed
          (Printf.sprintf "find_violation: violation after %d executions"
             v.X.executions_checked)));
  let pass = explore_pass ?spans ~seed ~expected () in
  { setup; verdict = t1 -. t0; cpu = c1 -. c0;
    minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    pass; traced = spans <> None }

(* A round's end-to-end figures by name; an op is one execution. *)
let figures ~execs r =
  [
    ("setup_s", r.setup);
    ("ops_per_s", execs /. r.verdict);
    ("latency_p50_us", quantile r.pass.blocks 0.5 *. 1e6);
    ("latency_p99_us", quantile r.pass.blocks 0.99 *. 1e6);
    ("cpu_us_per_op", r.cpu /. execs *. 1e6);
    ("retained_bytes_per_op", r.pass.trace_bytes);
    ("verdict_s", r.verdict);
  ]

let run ~seed ~seconds ~trace ~size:_ =
  let built, procs = build ~seed in
  let expected = multinomial (List.map (accesses built) procs) in
  let sp = if trace then Some (Spans.create ()) else None in
  (* traced runs alternate untraced and traced rounds; only the explore
     pass of a traced round records spans *)
  let correct, notes, rounds =
    try
      negative_control ();
      let rounds =
        Common.rounds ~seconds ~min_rounds:(if trace then 2 else 1) (fun i ->
            Some
              (with_steal (fun () ->
                   round ~seed ~expected ~spans:(if i mod 2 = 1 then sp else None))))
      in
      (true, [], rounds)
    with Check_failed s -> (false, [ s ], [])
  in
  let stolen = rounds in
  let rounds = List.map fst stolen in
  (* the execution record the search builds is the same in every round *)
  let correct, notes =
    match rounds with
    | r0 :: _
      when List.exists (fun r -> r.pass.trace_bytes <> r0.pass.trace_bytes) rounds ->
      (false, notes @ [ "the explorer's execution record changed size between rounds" ])
    | _ -> (correct, notes)
  in
  let plain = List.filter (fun r -> not r.traced) rounds in
  let traced = List.filter (fun r -> r.traced) rounds in
  let med rs f = median_l (List.map f rs) in
  let execs = float_of_int expected in
  let pass_cpu rs = med rs (fun r -> r.pass.pass_cpu /. execs *. 1e6) in
  let e2e, round_notes =
    e2e_report
      (List.map (fun (r, s) -> (figures ~execs r, s, (not r.traced) || plain = [])) stolen)
  in
  let layers =
    match (sp, traced) with
    | Some sp, _ :: _ ->
      let n = execs *. float_of_int (List.length traced) in
      let per name =
        let _, total, _ = Spans.totals sp name in
        total /. n *. 1e6
      in
      let leaf = per "explorer.leaf" in
      [
        ("explorer.dfs_us_per_exec", per "explorer.explore" -. leaf);
        ("explorer.leaf_us_per_exec", leaf);
        ("explorer.executions", execs);
        ("fastcheck.us_per_op", per "fastcheck.is_atomic");
        ("gc.minor_words_per_op", med rounds (fun r -> r.minor /. execs));
        ( "gc.major_collections_per_kop",
          med rounds (fun r -> float_of_int r.major /. execs *. 1000.) );
        ( "trace.unattributed_cpu_us_per_op",
          Float.max 0. (pass_cpu traced -. (Spans.covered sp /. n *. 1e6)) );
        ("trace.overhead_cpu_us_per_op", pass_cpu traced -. pass_cpu plain);
        ("trace.spans_per_op", float_of_int (Spans.count sp) /. n);
      ]
    | _ -> []
  in
  ( {
      correct;
      (* each round enumerates every execution twice: the verdict and
         the explore pass *)
      attempted = max 1 (2 * List.length rounds) * expected;
      failed = 0;
      metrics = e2e;
      notes =
        notes
        @ [
            Printf.sprintf
              "mc-bloom: %d rounds, each a find_violation verdict and an \
               explore pass of %d executions (the multinomial), all atomic"
              (List.length rounds) expected;
          ]
        @ round_notes;
    },
    layers,
    sp )
