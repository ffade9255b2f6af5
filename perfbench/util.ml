(* Plumbing shared by the three workloads: a monotonic clock, order
   statistics, host-speed readings, sub-seeds, GC deltas, gates, /proc
   readers, forked rounds and the result line. *)

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* A growable float buffer: latency samples are kept whole, so every
   percentile is exact and its sample count is known. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let iter f t =
    for i = 0 to t.n - 1 do
      f t.a.(i)
    done

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Linear interpolation between closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  percentile a 0.5

(* The median time of [n] calls of [f]. *)
let median_time n f = median (List.init n (fun _ -> snd (time f)))

let sum l = List.fold_left ( +. ) 0.0 l
let sumi l = List.fold_left ( + ) 0 l
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* ---- host speed ----

   The VM's CPU speed drifts with the load on the host it shares: one
   sim-paper round took 1.2 s or 1.9 s within two minutes, with no
   steal ticks, and its CPU time moved with its wall time.  So the
   benchmark reports every time at a nominal speed.  A fixed kernel
   (the benchmark's own code, none of the repository's) is timed
   before and after each block of measured work, and the block's times
   are multiplied by [nominal_s] over the mean of the two kernel
   times.  Counts, sizes and memory are reported as they are. *)
module Speed = struct
  (* Hash-table inserts, a sort and short-lived allocation: the stuff
     of the workloads' own inner loops. *)
  let kernel () =
    let h = Hashtbl.create 16 in
    for i = 0 to 5_000 do
      Hashtbl.replace h ((i * 7919) land 0xfffff) i
    done;
    let a = Array.init 5_000 (fun i -> float_of_int ((i * 104729) land 0xffff)) in
    Array.sort compare a;
    let l = ref [] in
    for i = 0 to 8_000 do
      l := (i, i) :: !l
    done;
    ignore (Sys.opaque_identity (List.length !l, a.(7), Hashtbl.length h))

  (* About the kernel's median time on the 2-vCPU Xeon VM the bounds
     were set on, so a scaled time reads close to what that VM measures
     at its usual speed. *)
  let nominal_s = 0.003

  (* One reading: the median of three kernel runs. *)
  let read () = median_time 3 kernel

  let last = ref nan
  let readings = ref []

  (* Minor words the readings allocated, which the GC metrics leave
     out. *)
  let words = ref 0.0

  let take () =
    let w0 = Gc.minor_words () in
    let r = read () in
    words := !words +. (Gc.minor_words () -. w0);
    last := r;
    readings := r :: !readings;
    r

  (* Runs [f] between two readings; returns its result and the factor
     that takes the times measured inside it to nominal speed.  Blocks
     run back to back share the reading between them. *)
  let around f =
    let before = if Float.is_nan !last then take () else !last in
    let r = f () in
    let after = take () in
    (r, 2.0 *. nominal_s /. (before +. after))

  (* [time f] at nominal speed. *)
  let time f =
    let (r, dt), k = around (fun () -> time f) in
    (r, dt *. k)

  (* [median_time n f] at nominal speed. *)
  let median_time n f =
    let t, k = around (fun () -> median_time n f) in
    t *. k

  (* The median raw reading so far, in ms: the host's speed over the
     run, for the environment line. *)
  let kernel_ms () = median !readings *. 1e3

  (* The readings' state, which a forked child carries back. *)
  type state = float * float list * float

  let state () : state = (!last, !readings, !words)

  let restore ((l, r, w) : state) =
    last := l;
    readings := r;
    words := w
end

(* ---- sub-seeds ---- *)

(* sim-paper and oracle-sweep draw [n] sub-seeds from the run's seed
   and cycle through them, one per round.  From a list with one entry
   per round: the entries of each sub-seed, and the first pass. *)
let by_sub_seed n l = List.init n (fun k -> List.filteri (fun i _ -> i mod n = k) l)
let first_pass n l = List.filteri (fun i _ -> i < n) l

(* ---- GC ---- *)

(* GC work over a stretch of the run.  Minor words come from
   Gc.minor_words, which also counts the live minor heap, less what
   the host-speed readings allocated. *)
type gc = { minor_words : float; major_collections : int; top_heap_words : int }

let gc_now () =
  let st = Gc.quick_stat () in
  { minor_words = Gc.minor_words () -. !Speed.words;
    major_collections = st.Gc.major_collections;
    top_heap_words = st.Gc.top_heap_words }

let gc_since g0 =
  let g1 = gc_now () in
  { minor_words = g1.minor_words -. g0.minor_words;
    major_collections = g1.major_collections - g0.major_collections;
    top_heap_words = g1.top_heap_words }

let gc_zero = { minor_words = 0.0; major_collections = 0; top_heap_words = 0 }

let gc_add a b =
  { minor_words = a.minor_words +. b.minor_words;
    major_collections = a.major_collections + b.major_collections;
    top_heap_words = max a.top_heap_words b.top_heap_words }

(* ---- gates ---- *)

(* A gate failure does not stop the run: every gate is evaluated, the
   messages go to stderr and the result line reads correct=false. *)
let gate_failures : string list ref = ref []

let gate ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        gate_failures := msg :: !gate_failures;
        Printf.eprintf "perfbench: gate failed: %s\n%!" msg
      end)
    fmt

(* ---- /proc ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report a length of 0, so they are read line by line. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | l -> loop (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let status_field pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = field ->
        Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines path)

(* Peak resident set of a live process, in MB. *)
let vm_hwm_mb pid =
  match status_field pid "VmHWM" with
  | Some v -> (
    match words v with
    | kb :: _ -> float_of_string kb /. 1024.0
    | [] -> nan)
  | None -> nan

(* Runs [f] in a forked child; returns its result, the child's peak
   resident set in MB and its GC work.  The child starts from the
   parent's heap and its growth dies with it, so each call's peak is its
   own.  The host-speed readings the child took come back with it. *)
let in_child (type a) (f : unit -> a) : a * float * gc =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let result =
      try
        (* restart VmHWM from the resident set the child inherited *)
        (try
           let oc = open_out "/proc/self/clear_refs" in
           output_string oc "5";
           close_out oc
         with Sys_error _ -> ());
        let g0 = gc_now () in
        let v = f () in
        Ok (v, vm_hwm_mb "self", gc_since g0, Speed.state ())
      with e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc result [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result =
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          ignore (Unix.waitpid [] pid))
        (fun () -> (Marshal.from_channel ic : (a * float * gc * Speed.state, string) result))
    in
    match result with
    | Ok (v, rss_mb, gc, speed) ->
      Speed.restore speed;
      (v, rss_mb, gc)
    | Error msg -> failwith msg)

(* (on-CPU ns, run-queue wait ns) of a process's main thread. *)
let schedstat pid =
  match read_lines (Printf.sprintf "/proc/%s/schedstat" pid) with
  | l :: _ -> (
    match words l with
    | cpu :: wait :: _ -> (float_of_string cpu, float_of_string wait)
    | _ -> (nan, nan))
  | [] -> (nan, nan)

(* Steal ticks of the whole host ("cpu" line) and of one CPU. *)
let steal_ticks () =
  List.filter_map
    (fun l ->
      match words l with
      | name :: f when String.length name >= 3 && String.sub name 0 3 = "cpu" -> (
        match List.nth_opt f 7 with
        | Some s -> Some (name, int_of_string s)
        | None -> None)
      | _ -> None)
    (read_lines "/proc/stat")

let cpus_allowed () =
  Option.value (status_field "self" "Cpus_allowed_list") ~default:"?"

(* The scheduling policy number (0 normal, 3 batch) from /proc/self/sched. *)
let sched_policy () =
  List.find_map
    (fun l ->
      match words l with
      | [ "policy"; ":"; n ] -> int_of_string_opt n
      | _ -> None)
    (read_lines "/proc/self/sched")

(* The file system holding [path]: "memfd" for an anonymous in-memory
   file, else the longest mount point that prefixes its real path. *)
let fs_type path =
  let link = try Unix.readlink path with Unix.Unix_error _ -> path in
  if String.starts_with ~prefix:"/memfd:" link then "memfd" else
  let real = try Unix.realpath path with Unix.Unix_error _ -> path in
  let under mp =
    mp = "/"
    || real = mp
    || String.length real > String.length mp
       && String.sub real 0 (String.length mp) = mp
       && real.[String.length mp] = '/'
  in
  List.fold_left
    (fun (best_len, best) l ->
      match words l with
      | _ :: mp :: fs :: _ when under mp && String.length mp > best_len ->
        (String.length mp, fs)
      | _ -> (best_len, best))
    (-1, "?") (read_lines "/proc/self/mounts")
  |> snd

(* ---- result line ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = Printf.sprintf "%.17g" x

let gc_metrics g ~commits =
  [
    m "gc.minor_words_per_commit" "words" (g.minor_words /. float_of_int (max 1 commits));
    m "gc.major_collections" "count" (float_of_int g.major_collections);
    m "gc.top_heap_mb" "MB" (float_of_int (g.top_heap_words * 8) /. 1048576.0);
  ]

let print_env fields =
  print_endline
    ("{\"env\": {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
    ^ "}}")

(* The last line of stdout: the result object.  A metric
   that came out non-finite is a measurement bug and fails the run. *)
let print_result ~attempted ~failed metrics =
  List.iter
    (fun mt ->
      gate (Float.is_finite mt.value) "metric %s is not a finite number" mt.name)
    metrics;
  let correct = !gate_failures = [] in
  let metric mt =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string mt.name)
      (json_float (if Float.is_finite mt.value then mt.value else 0.0))
      (json_string mt.unit_)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics));
  correct
