(* sim-paper: the paper's Fig. 4 point (5% long transactions, 100 TPS,
   10 drives x 25 ms, 10^7 objects, Sim backend) prepared and finished
   in-process, once per manager: EL [18;16], FW 130 blocks and hybrid
   [18;16].

   A run's commit latencies swing by several per cent with its seed, so
   the run draws [sub_seeds] sub-seeds from its seed and cycles through
   them, one per round, reporting for each metric the figure of a
   typical pass through them.  A round that repeats a sub-seed must
   repeat its counts exactly. *)

open Util
module Experiment = El_harness.Experiment
module Generator = El_workload.Generator

let sub_seeds = 4

let managers =
  [
    ("el", Experiment.Ephemeral (El_core.Policy.default ~generation_sizes:[| 18; 16 |]));
    ("fw", Experiment.Firewall 130);
    ("hybrid", Experiment.Hybrid [| 18; 16 |]);
  ]

let config ~seed ~runtime kind =
  {
    (Experiment.default_config ~kind
       ~mix:(El_workload.Mix.short_long ~long_fraction:0.05))
    with
    Experiment.seed;
    runtime;
  }

(* What the benchmark's sink wrapper records: wall-clock commit
   latency (request to ack), acked payload bytes, and — when traced —
   wall time inside the manager's sink calls. *)
type probe = {
  lat_ms : Samples.t;  (** at the host's speed of the moment *)
  mutable payload : int;
  mutable sink_ns : int64;
  traced : bool;
}

let wrap probe (sink : Generator.sink) : Generator.sink =
  let pending = Hashtbl.create 1024 in
  let inside f =
    if probe.traced then begin
      let t0 = now_ns () in
      f ();
      probe.sink_ns <- Int64.add probe.sink_ns (Int64.sub (now_ns ()) t0)
    end
    else f ()
  in
  {
    Generator.begin_tx =
      (fun ~tid ~expected_duration ->
        inside (fun () -> sink.Generator.begin_tx ~tid ~expected_duration));
    write_data =
      (fun ~tid ~oid ~version ~size ->
        Hashtbl.replace pending tid
          (size + Option.value (Hashtbl.find_opt pending tid) ~default:0);
        inside (fun () -> sink.Generator.write_data ~tid ~oid ~version ~size));
    request_commit =
      (fun ~tid ~on_ack ->
        let t0 = now_ns () in
        let on_ack at =
          Samples.add probe.lat_ms (secs_since t0 *. 1e3);
          probe.payload <- probe.payload + Option.value (Hashtbl.find_opt pending tid) ~default:0;
          Hashtbl.remove pending tid;
          on_ack at
        in
        inside (fun () -> sink.Generator.request_commit ~tid ~on_ack));
    request_abort =
      (fun ~tid ->
        Hashtbl.remove pending tid;
        inside (fun () -> sink.Generator.request_abort ~tid));
  }

(* One manager's run: its result, events dispatched, wall time from
   prepare to the end of finish, the prepare time alone, and what its
   sink probe counted, times at nominal speed.  Its commit latencies
   went to [lat], at nominal speed too. *)
type point = {
  name : string;
  result : Experiment.result;
  events : int;
  wall_s : float;
  prepare_s : float;
  payload : int;
  sink_s : float;
}

let run_point ~traced ~lat (name, cfg) =
  let probe = { lat_ms = Samples.create (); payload = 0; sink_ns = 0L; traced } in
  let (live, result, prepare_s, wall_s), k =
    Speed.around (fun () ->
        let t0 = now_ns () in
        let live = Experiment.prepare ~wrap_sink:(wrap probe) cfg in
        let prepare_s = secs_since t0 in
        let result = live.Experiment.finish () in
        (live, result, prepare_s, secs_since t0))
  in
  Samples.iter (fun ms -> Samples.add lat (ms *. k)) probe.lat_ms;
  {
    name;
    result;
    events = El_sim.Engine.events_dispatched live.Experiment.engine;
    wall_s = wall_s *. k;
    prepare_s = prepare_s *. k;
    payload = probe.payload;
    sink_s = Int64.to_float probe.sink_ns /. 1e9 *. k;
  }

(* The counts two runs of one seed must share. *)
let counts pt =
  let r = pt.result in
  Experiment.
    [ r.started; r.committed; r.killed; r.evictions; r.log_writes_total;
      r.flushes_completed; r.forwarded_records; r.recirculated_records;
      pt.events; pt.payload ]

(* Commit latency percentiles of one round's runs. *)
type latency = { p50_ms : float; p99_ms : float }

let latency lat =
  let s = Samples.sorted lat in
  { p50_ms = percentile s 0.5; p99_ms = percentile s 0.99 }

type run = {
  rounds : point list list;  (** the manager runs of each round *)
  latencies : latency list;  (** per round *)
  setup_s : float;
  gc : gc;  (** over all rounds *)
}

(* Rounds of the three managers until [seconds] have passed, and until
   a sub-seed has repeated, so the determinism gate has a pair to
   compare.  The gates: every run feasible, and every round's counts
   equal those of the first round of its sub-seed. *)
let run ~seed ~runtime ~seconds ~traced ~plant =
  let cells_of round =
    let seed = Hashtbl.hash (seed, (round - 1) mod sub_seeds) in
    List.map
      (fun (name, kind) ->
        let kind =
          if plant = Some "sim-infeasible" && name = "el" then
            Experiment.Ephemeral (El_core.Policy.default ~generation_sizes:[| 3; 3 |])
          else kind
        in
        let seed =
          if plant = Some "nondeterministic" && round = sub_seeds + 1 then seed + 1 else seed
        in
        (name, config ~seed ~runtime kind))
      managers
  in
  (* Set-up: the median of nine plant builds per manager, summed. *)
  let setup_s =
    sum
      (List.map
         (fun (_, cfg) -> Speed.median_time 9 (fun () -> ignore (Experiment.prepare cfg)))
         (cells_of 1))
  in
  let gc0 = gc_now () in
  let t0 = now_ns () in
  let rec loop round acc lats =
    let lat = Samples.create () in
    let acc = List.map (run_point ~traced ~lat) (cells_of round) :: acc in
    let lats = latency lat :: lats in
    if round > sub_seeds && secs_since t0 >= seconds then (List.rev acc, List.rev lats)
    else loop (round + 1) acc lats
  in
  let rounds, latencies = loop 1 [] [] in
  let gc = gc_since gc0 in
  List.iteri
    (fun i pts ->
      let first = List.nth rounds (i mod sub_seeds) in
      List.iter2
        (fun pt q ->
          let r = pt.result in
          gate r.Experiment.feasible
            "sim-paper: %s run infeasible (killed %d, evictions %d, overloaded %b)" pt.name
            r.Experiment.killed r.Experiment.evictions r.Experiment.overloaded;
          gate (counts pt = counts q) "determinism: round %d's %s counts differ from round %d's"
            (i + 1) pt.name
            (1 + (i mod sub_seeds)))
        pts first)
    rounds;
  { rounds; latencies; setup_s; gc }

let total f points = sumi (List.map f points)
let committed pts = total (fun pt -> pt.result.Experiment.committed) pts
let wall pts = sum (List.map (fun pt -> pt.wall_s) pts)

let attempted r = total (fun pt -> pt.result.Experiment.started) (List.concat r.rounds)

let failed r =
  total
    (fun pt -> pt.result.Experiment.killed + pt.result.Experiment.evictions)
    (List.concat r.rounds)

(* A typical pass through the sub-seeds takes each one's median round
   time; its rates divide the pass's counts by that.  Latencies are the
   mean over sub-seeds of each one's median.  Counts repeat exactly, so
   one pass's stand. *)
let end_to_end r =
  let pass_s =
    sum (List.map (fun g -> median (List.map wall g)) (by_sub_seed sub_seeds r.rounds))
  in
  let latency f =
    sum (List.map (fun g -> median (List.map f g)) (by_sub_seed sub_seeds r.latencies))
    /. float_of_int sub_seeds
  in
  let first = List.concat (first_pass sub_seeds r.rounds) in
  let log_writes = total (fun pt -> pt.result.Experiment.log_writes_total) first in
  [
    m "setup_s" "s" r.setup_s;
    m "commits_per_s" "1/s" (float_of_int (committed first) /. pass_s);
    m "commit_p50_ms" "ms" (latency (fun l -> l.p50_ms));
    m "commit_p99_ms" "ms" (latency (fun l -> l.p99_ms));
    m "fsyncs_per_commit" "1" (ratio log_writes (committed first));
    m "write_amp" "1"
      (ratio (log_writes * El_model.Params.block_raw) (total (fun pt -> pt.payload) first));
    m "points_per_s" "1/s" (float_of_int (List.length first) /. pass_s);
    m "peak_rss_mb" "MB" (vm_hwm_mb "self");
  ]

let layers r =
  let pts = List.concat r.rounds in
  let c = committed pts in
  let per_commit x = x /. float_of_int (max 1 c) in
  let of_manager name = List.filter (fun pt -> pt.name = name) pts in
  let sink_us name =
    let ps = of_manager name in
    sum (List.map (fun pt -> pt.sink_s) ps) *. 1e6 /. float_of_int (max 1 (committed ps))
  in
  let loop_s = sum (List.map (fun pt -> pt.wall_s -. pt.prepare_s -. pt.sink_s) pts) in
  let res f = float_of_int (total (fun pt -> f pt.result) pts) in
  [
    m "core.el.sink_us_per_commit" "us" (sink_us "el");
    m "core.fw.sink_us_per_commit" "us" (sink_us "fw");
    m "core.hybrid.sink_us_per_commit" "us" (sink_us "hybrid");
    m "core.forwarded_per_commit" "1" (per_commit (res (fun r -> r.Experiment.forwarded_records)));
    m "core.recirculated_per_commit" "1"
      (per_commit (res (fun r -> r.Experiment.recirculated_records)));
    m "sim.events_per_commit" "1" (per_commit (float_of_int (total (fun pt -> pt.events) pts)));
    m "sim.loop_us_per_commit" "us" (per_commit loop_s *. 1e6);
    m "disk.log_writes_per_commit" "1" (per_commit (res (fun r -> r.Experiment.log_writes_total)));
    m "disk.flushes_per_commit" "1" (per_commit (res (fun r -> r.Experiment.flushes_completed)));
    m "disk.flush_backlog_peak" "count"
      (float_of_int
         (List.fold_left (fun a pt -> max a pt.result.Experiment.flush_backlog_peak) 0 pts));
    m "harness.prepare_ms" "ms"
      (sum
         (List.map
            (fun (name, _) -> median (List.map (fun pt -> pt.prepare_s) (of_manager name)))
            managers)
      *. 1e3);
  ]
  @ gc_metrics r.gc ~commits:c
