(* Shared plumbing of the benchmark: clocks, order statistics, the
   per-workload result record and its JSON rendering. *)

let now = Unix.gettimeofday

(* Process CPU time (user + system, every thread and domain). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU time the hypervisor gave to others while this VM wanted it, in
   seconds summed over CPUs: the steal column of /proc/stat (in
   USER_HZ = 100 ticks); 0 where the file is unavailable. *)
let steal () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic -> (
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: st :: _ ->
      Option.value ~default:0. (float_of_string_opt st) /. 100.
    | _ -> 0.)

let quantile xs q =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let a = Array.copy xs in
    Array.sort compare a;
    (* linear interpolation between closest ranks *)
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let f = pos -. float_of_int i in
    if i + 1 < n then (a.(i) *. (1. -. f)) +. (a.(i + 1) *. f) else a.(i)

let median xs = quantile xs 0.5
let median_l l = median (Array.of_list l)

(* One reported figure. *)
type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** failed checks and report lines, for humans *)
}

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun { name; value; unit } ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_float value) (json_string unit))
         ms)
  ^ "}"

let result_json r =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    r.correct r.attempted r.failed (metrics_json r.metrics)

(* A check that failed: recorded, and the run reports [correct: false]. *)
exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun s -> if not cond then raise (Check_failed s)) fmt

(* Scratch space inside the working directory.  Paths stay relative:
   a Unix socket path must fit in 108 bytes wherever the checkout is. *)
let scratch_root = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_counter = ref 0

(* This process's directory under the scratch root, removed when the
   process ends. *)
let run_dir () = Filename.concat scratch_root (Printf.sprintf "run%d" (Unix.getpid ()))

(* A new, empty directory in the run's directory. *)
let fresh_dir tag =
  incr fresh_counter;
  let d = Filename.concat (run_dir ()) (Printf.sprintf "%s%d" tag !fresh_counter) in
  rm_rf d;
  mkdir_p d;
  d

let cleanup () = rm_rf (run_dir ())

(* CPUs the VM offers: the capacity a round's steal is a share of. *)
let ncpu = Domain.recommended_domain_count ()

(* Round-based measurement: [round ()] runs one whole round and returns
   its figures; rounds repeat until [seconds] of round time have
   elapsed (at least [min_rounds]), so every run attempts whole rounds
   of the same operations. *)
let rounds ~seconds ~min_rounds round =
  let t0 = now () in
  let rec go acc n =
    if n >= min_rounds && now () -. t0 >= seconds then List.rev acc
    else
      match round n with
      | Some r -> go (r :: acc) (n + 1)
      | None -> List.rev acc
  in
  go [] 0

(* [f ()], and the share of the VM's CPU capacity the hypervisor stole
   while it ran. *)
let with_steal f =
  let s0 = steal () and w0 = now () in
  let r = f () in
  (r, (steal () -. s0) /. (float_of_int ncpu *. Float.max 1e-3 (now () -. w0)))

(* The end-to-end metrics of BENCHMARK.json, with their units. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("cpu_us_per_op", "us");
    ("retained_bytes_per_op", "B");
    ("verdict_s", "s");
  ]

(* A round whose steal stayed within this share of the VM's CPU
   capacity counts as undisturbed.  The steal column ticks at 100 Hz,
   so on a one-second round of a 2-CPU VM this is 4 ticks. *)
let steal_limit = 0.02

(* A figure's value at zero steal: a Theil-Sen line through the rounds'
   (steal share, log figure) points, read at steal 0.  The slope is the
   median of the pairwise slopes, the intercept the median of the
   points' intercepts under it; both ignore up to about 29% of wild
   rounds.  Fitting the logarithm keeps the result positive and fits
   the steal's effect as a slowdown factor. *)
let at_zero_steal pts =
  let a = Array.of_list (List.map (fun (s, y) -> (s, log y)) pts) in
  let slopes = ref [] in
  Array.iteri
    (fun i (x1, y1) ->
      for j = i + 1 to Array.length a - 1 do
        let x2, y2 = a.(j) in
        if x2 <> x1 then slopes := ((y2 -. y1) /. (x2 -. x1)) :: !slopes
      done)
    a;
  let b = match !slopes with [] -> 0. | l -> median_l l in
  exp (median (Array.map (fun (x, y) -> y -. (b *. x)) a))

(* A run's figure from its reported rounds, each a (steal share,
   figure) pair: the median of the undisturbed rounds when at least
   half of the rounds are undisturbed, and otherwise the figure at zero
   steal fitted through every round.  Steal slows a kv-mixed round far
   more than in proportion, and when it lasts a whole run even its
   least-stolen rounds are slow; the fit reads through it. *)
let run_figure rounds =
  let quiet = List.filter (fun (s, _) -> s <= steal_limit) rounds in
  if 2 * List.length quiet >= List.length rounds then median_l (List.map snd quiet)
  else at_zero_steal rounds

(* Each round's end-to-end figures by name, its steal share, and
   whether it is reported (warm-up and traced rounds are not).  Returns
   the metrics and one report line per round. *)
let e2e_report rounds =
  let reported = List.filter_map (fun (f, s, rep) -> if rep then Some (f, s) else None) rounds in
  let quiet = List.length (List.filter (fun (_, s) -> s <= steal_limit) reported) in
  let metrics =
    List.map
      (fun (name, unit) ->
        m name unit (run_figure (List.map (fun (f, s) -> (s, List.assoc name f)) reported)))
      end_to_end
  in
  let notes =
    List.mapi
      (fun i (f, share, rep) ->
        Printf.sprintf "round %d steal %.4f%s: %s" i share
          (if rep then "" else " (not reported)")
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.6g" k v) f)))
      rounds
  in
  ( metrics,
    notes
    @ [
        (if 2 * quiet >= List.length reported then
           Printf.sprintf
             "end-to-end figures: the median of the %d of %d rounds with steal \
              at most %.0f%% of the CPUs"
             quiet (List.length reported) (steal_limit *. 100.)
         else
           Printf.sprintf
             "end-to-end figures: at zero steal, fitted through all %d rounds \
              (only %d had steal at most %.0f%% of the CPUs)"
             (List.length reported) quiet (steal_limit *. 100.));
      ] )

(* Full-size inputs for measured runs; small ones for the self-test. *)
type size = Full | Small
