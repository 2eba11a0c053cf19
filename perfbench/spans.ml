(* In-memory span recorder for the traced run.

   A span is one call the benchmark makes into a layer: its name, wall
   start and end, the span that was open on the same thread when it
   began (its parent), and the request's session and sequence number
   when the message carries them.  Self time is a span's duration minus
   the time covered by its children.  Totals per span name are kept for
   every span; the spans themselves are kept up to a cap and written as
   JSONL when the run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start : float;
  stop : float;
  sess : int;  (** client processor, or [-1] *)
  seq : int;  (** request sequence number, or [-1] *)
}

type totals = { mutable n : int; mutable total : float; mutable self : float }

type frame = { fid : int; mutable child : float }

type t = {
  mu : Mutex.t;
  mutable next_id : int;
  stacks : (int, frame list) Hashtbl.t;  (** per thread: open spans *)
  by_name : (string, totals) Hashtbl.t;
  mutable kept : span list;
  mutable nkept : int;
  cap : int;
}

(* Spans kept for the JSONL file. *)
let cap = 100_000

let create () =
  {
    mu = Mutex.create ();
    next_id = 0;
    stacks = Hashtbl.create 16;
    by_name = Hashtbl.create 16;
    kept = [];
    nkept = 0;
    cap;
  }

let thread_key () =
  ((Domain.self () :> int) * 1_000_000) + Thread.id (Thread.self ())

let with_span t name ?(sess = -1) ?(seq = -1) f =
  let key = thread_key () in
  let fr, parent =
    Mutex.protect t.mu (fun () ->
        let stack = Option.value ~default:[] (Hashtbl.find_opt t.stacks key) in
        let fr = { fid = t.next_id; child = 0. } in
        t.next_id <- t.next_id + 1;
        Hashtbl.replace t.stacks key (fr :: stack);
        (fr, match stack with p :: _ -> p.fid | [] -> -1))
  in
  let start = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      let d = stop -. start in
      Mutex.protect t.mu (fun () ->
          (match Hashtbl.find_opt t.stacks key with
           | Some (_ :: (p :: _ as rest)) ->
             p.child <- p.child +. d;
             Hashtbl.replace t.stacks key rest
           | Some _ | None -> Hashtbl.remove t.stacks key);
          let tot =
            match Hashtbl.find_opt t.by_name name with
            | Some x -> x
            | None ->
              let x = { n = 0; total = 0.; self = 0. } in
              Hashtbl.add t.by_name name x;
              x
          in
          tot.n <- tot.n + 1;
          tot.total <- tot.total +. d;
          tot.self <- tot.self +. (d -. fr.child);
          if t.nkept < t.cap then begin
            t.kept <-
              { id = fr.fid; parent; name; start; stop; sess; seq } :: t.kept;
            t.nkept <- t.nkept + 1
          end))

(* [with_span] in a traced round, the bare call otherwise. *)
let maybe t name ?sess ?seq f =
  match t with Some t -> with_span t name ?sess ?seq f | None -> f ()

let totals t name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.by_name name with
      | Some x -> (x.n, x.total, x.self)
      | None -> (0, 0., 0.))

(* Self time summed over every span name: the wall time the spans
   cover, each instant counted once per thread. *)
let covered t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold (fun _ x acc -> acc +. x.self) t.by_name 0.)

(* Spans recorded, kept or not. *)
let count t = Mutex.protect t.mu (fun () -> t.next_id)

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"start\":%.6f,\"end\":%.6f,\"sess\":%d,\"seq\":%d}\n"
        s.id s.parent (Common.json_string s.name) s.start s.stop s.sess s.seq)
    (List.rev t.kept);
  close_out oc
