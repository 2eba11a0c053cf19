(* Workload inputs, generated from the run's seed.  The program only
   ever sees the generated operations. *)

module E = Histories.Event

(* One client session's script: the processor it plays and its keyed
   operations, in order. *)
type session = { proc : int; ops : (int * int E.op) array }

let rng ~seed ~stream = Random.State.make [| seed; stream |]

(* Writer [w]'s [i]-th write writes [2i + w + 1]: unique across both
   writers for any run length (the parity names the writer) and never
   the initial value 0. *)
let value ~writer i = (2 * i) + writer + 1

let session ~rng ~proc ~keys ~ops ~write_share =
  let writes = ref 0 in
  let ops =
    Array.init ops (fun _ ->
        let key = Random.State.int rng keys in
        if proc <= 1 && Random.State.float rng 1.0 < write_share then begin
          let v = value ~writer:proc !writes in
          incr writes;
          (key, E.Write v)
        end
        else (key, E.Read))
  in
  { proc; ops }

(* kv-mixed and sim-faults: writer processor 0 at [write_share] writes,
   reader processor 2 reading only, keys uniform over [0, keys). *)
let mixed ~seed ~keys ~ops ~write_share =
  [
    session ~rng:(rng ~seed ~stream:0) ~proc:0 ~keys ~ops ~write_share;
    session ~rng:(rng ~seed ~stream:2) ~proc:2 ~keys ~ops ~write_share:0.;
  ]

let total_ops sessions =
  List.fold_left (fun n s -> n + Array.length s.ops) 0 sessions

(* key -> values the inputs write to it *)
let written sessions =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Array.iter
        (function
          | key, E.Write v ->
            let l = Option.value ~default:[] (Hashtbl.find_opt h key) in
            Hashtbl.replace h key (v :: l)
          | _, E.Read -> ())
        s.ops)
    sessions;
  h

(* mc-bloom: the seed picks the four distinct non-zero values the two
   writers write; the shape (two writes per writer, one reader reading
   twice) is fixed, so the number of executions is too. *)
let bloom_processes ~seed =
  let r = rng ~seed ~stream:7 in
  let rec distinct acc =
    if List.length acc = 4 then acc
    else
      let v = 1 + Random.State.int r 1_000_000 in
      if List.mem v acc then distinct acc else distinct (v :: acc)
  in
  match distinct [] with
  | [ a; b; c; d ] ->
    [
      { Registers.Vm.proc = 0; script = [ E.Write a; E.Write b ] };
      { Registers.Vm.proc = 1; script = [ E.Write c; E.Write d ] };
      { Registers.Vm.proc = 2; script = [ E.Read; E.Read ] };
    ]
  | _ -> assert false
