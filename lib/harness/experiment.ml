open El_model
module Engine = El_sim.Engine
module Generator = El_workload.Generator
module Flush_array = El_disk.Flush_array
module Stable_db = El_disk.Stable_db
module El_manager = El_core.El_manager
module Fw_manager = El_core.Fw_manager
module Hybrid_manager = El_core.Hybrid_manager

type manager_kind =
  | Ephemeral of El_core.Policy.t
  | Firewall of int
  | Hybrid of int array

type backend = Sim | Mem_store | File_store of string

type config = {
  kind : manager_kind;
  mix : El_workload.Mix.t;
  arrival_rate : float;
  arrival_process : Generator.arrival_process;
  draw : El_workload.Draw.t;
  lifetime : El_workload.Lifetime.t;
  max_retries : int;
  retry_backoff : Time.t;
  runtime : Time.t;
  flush_drives : int;
  flush_transfer : Time.t;
  flush_scheduling : Flush_array.scheduling;
  num_objects : int;
  seed : int;
  abort_fraction : float;
  observer : El_obs.Obs.config option;
  fault : El_fault.Fault_plan.t;
  backend : backend;
  pooling : bool;
      (* recycle ledger entries / arena segments instead of
         allocating; behaviour-identical, off for A/B profiling *)
  shards : int;
      (* oid-range partitions, one manager plant each; 1 = the solo
         path.  [prepare] itself only accepts 1 — sharded runs go
         through El_shard.Shard_group, which carries this config *)
}

let default_config ~kind ~mix =
  {
    kind;
    mix;
    arrival_rate = 100.0;
    arrival_process = Generator.Deterministic;
    draw = El_workload.Draw.Uniform;
    lifetime = El_workload.Lifetime.Fixed;
    max_retries = 0;
    retry_backoff = Time.of_ms 20;
    runtime = Time.of_sec 500;
    flush_drives = 10;
    flush_transfer = Time.of_ms 25;
    flush_scheduling = Flush_array.Nearest;
    num_objects = Params.num_objects;
    seed = 42;
    abort_fraction = 0.0;
    observer = None;
    fault = El_fault.Fault_plan.empty;
    backend = Sim;
    pooling = true;
    shards = 1;
  }

(* A preset replaces the whole traffic description but not the plant
   (drives, log sizing, runtime, seed, backend) — the rate stays the
   caller's so sweeps can push any scenario toward its own knee. *)
let apply_preset cfg (p : El_workload.Workload_preset.t) =
  {
    cfg with
    mix = p.El_workload.Workload_preset.mix;
    arrival_process = p.El_workload.Workload_preset.arrival;
    draw = p.El_workload.Workload_preset.draw;
    lifetime = p.El_workload.Workload_preset.lifetime;
    max_retries = p.El_workload.Workload_preset.max_retries;
    retry_backoff = p.El_workload.Workload_preset.retry_backoff;
  }

type manager =
  | El_log of El_manager.t
  | Fw_log of Fw_manager.t
  | Hybrid_log of Hybrid_manager.t

type manager_stats =
  | El_log_stats of El_manager.stats
  | Fw_log_stats of Fw_manager.stats
  | Hybrid_log_stats of Hybrid_manager.stats

(* The operations every manager module shares with its callers. *)
module type LOG = sig
  type t

  val begin_tx : t -> tid:Ids.Tid.t -> expected_duration:Time.t -> unit

  val write_data :
    t -> tid:Ids.Tid.t -> oid:Ids.Oid.t -> version:int -> size:int -> unit

  val request_commit : t -> tid:Ids.Tid.t -> on_ack:(Time.t -> unit) -> unit
  val request_abort : t -> tid:Ids.Tid.t -> unit
end

let log_sink (type m) (module M : LOG with type t = m) (m : m) =
  {
    Generator.begin_tx =
      (fun ~tid ~expected_duration -> M.begin_tx m ~tid ~expected_duration);
    write_data =
      (fun ~tid ~oid ~version ~size -> M.write_data m ~tid ~oid ~version ~size);
    request_commit = (fun ~tid ~on_ack -> M.request_commit m ~tid ~on_ack);
    request_abort = (fun ~tid -> M.request_abort m ~tid);
  }

let sink_of = function
  | El_log m -> log_sink (module El_manager) m
  | Fw_log m -> log_sink (module Fw_manager) m
  | Hybrid_log m -> log_sink (module Hybrid_manager) m

let drain = function
  | El_log m -> El_manager.drain m
  | Fw_log m -> Fw_manager.drain m
  | Hybrid_log m -> Hybrid_manager.drain m

let set_on_kill manager f =
  match manager with
  | El_log m -> El_manager.set_on_kill m f
  | Fw_log m -> Fw_manager.set_on_kill m f
  | Hybrid_log m -> Hybrid_manager.set_on_kill m f

let stats_of = function
  | El_log m -> El_log_stats (El_manager.stats m)
  | Fw_log m -> Fw_log_stats (Fw_manager.stats m)
  | Hybrid_log m -> Hybrid_log_stats (Hybrid_manager.stats m)

type result = {
  total_blocks : int;
  log_writes_per_gen : int array;
  log_writes_total : int;
  log_write_rate : float;
  peak_memory_bytes : int;
  started : int;
  committed : int;
  aborted : int;
  killed : int;
  contention_aborts : int;
  contention_retries : int;
  evictions : int;
  overloaded : bool;
  feasible : bool;
  updates_per_sec : float;
  flushes_completed : int;
  forced_flushes : int;
  flush_mean_distance : float;
  flush_backlog_peak : int;
  commit_latency_mean : float;
  forwarded_records : int;
  recirculated_records : int;
  stats : manager_stats list;
  backend_name : string;
  store_pwrites : int;
  store_barriers : int;
  store_bytes_written : int;
}

type live = {
  engine : Engine.t;
  manager : manager;
  obs : El_obs.Obs.t option;
  fault : El_fault.Injector.t option;
  store : El_store.Log_store.t option;
  finish : unit -> result;
}

(* One log-manager plant — everything downstream of the workload sink.
   The solo path builds exactly one; the sharded path
   ({!El_shard.Shard_group}) builds one per shard on a shared engine;
   the server builds one on the image it attached.  Construction lives
   in its own function because the solo and sharded paths must create
   the same components in the same order for the shards = 1
   byte-identity contract to hold by construction. *)
type instance = {
  i_stable : Stable_db.t;
  i_flush : Flush_array.t;
  i_manager : manager;
  i_store : El_store.Log_store.t option;
  i_sink : Generator.sink;
  i_set_on_kill : (Ids.Tid.t -> unit) -> unit;
}

let dispose_store = function
  | None -> ()
  | Some s ->
    let b = El_store.Log_store.backend s in
    let path = El_store.Backend.path b in
    El_store.Backend.close b;
    (match path with
    | Some p -> ( try Sys.remove p with Sys_error _ -> ())
    | None -> ())

let dispose_instance i = dispose_store i.i_store
let dispose live = dispose_store live.store

let collect_instance cfg ~generator ~overloaded (inst : instance) =
  let stats = stats_of inst.i_manager in
  let total_blocks, per_gen, mem_peak, evictions, forwarded, recirculated =
    match stats with
    | El_log_stats s ->
      ( Array.fold_left ( + ) 0 s.El_manager.generation_sizes,
        s.El_manager.log_writes_per_gen,
        s.El_manager.peak_memory_bytes,
        s.El_manager.evictions,
        s.El_manager.forwarded_records,
        s.El_manager.recirculated_records )
    | Fw_log_stats s ->
      ( s.Fw_manager.size_blocks,
        [| s.Fw_manager.log_writes |],
        s.Fw_manager.peak_memory_bytes,
        0,
        0,
        0 )
    | Hybrid_log_stats s ->
      ( Array.fold_left ( + ) 0 s.Hybrid_manager.queue_sizes,
        s.Hybrid_manager.log_writes_per_queue,
        s.Hybrid_manager.peak_memory_bytes,
        0,
        s.Hybrid_manager.regenerated_records,
        0 )
  in
  let log_writes_total = Array.fold_left ( + ) 0 per_gen in
  let seconds = Time.to_sec_f cfg.runtime in
  let killed = Generator.killed generator in
  {
    total_blocks;
    log_writes_per_gen = per_gen;
    log_writes_total;
    log_write_rate = float_of_int log_writes_total /. seconds;
    peak_memory_bytes = mem_peak;
    started = Generator.started generator;
    committed = Generator.committed generator;
    aborted = Generator.aborted generator;
    killed;
    contention_aborts = Generator.contention_aborts generator;
    contention_retries = Generator.retries generator;
    evictions;
    overloaded;
    feasible = (not overloaded) && killed = 0 && evictions = 0;
    updates_per_sec =
      float_of_int (Generator.data_records_written generator) /. seconds;
    flushes_completed = Flush_array.flushes_completed inst.i_flush;
    forced_flushes = Flush_array.forced_flushes inst.i_flush;
    flush_mean_distance = Flush_array.mean_distance inst.i_flush;
    flush_backlog_peak = Flush_array.peak_backlog inst.i_flush;
    commit_latency_mean =
      El_metrics.Running_stat.mean (Generator.commit_latency generator);
    forwarded_records = forwarded;
    recirculated_records = recirculated;
    stats = [ stats ];
    backend_name =
      (match inst.i_store with
      | None -> "sim"
      | Some s -> El_store.Backend.name (El_store.Log_store.backend s));
    store_pwrites =
      (match inst.i_store with
      | None -> 0
      | Some s ->
        (El_store.Backend.counters (El_store.Log_store.backend s))
          .El_store.Backend.pwrites);
    store_barriers =
      (match inst.i_store with
      | None -> 0
      | Some s ->
        (El_store.Backend.counters (El_store.Log_store.backend s))
          .El_store.Backend.barriers);
    store_bytes_written =
      (match inst.i_store with
      | None -> 0
      | Some s ->
        (El_store.Backend.counters (El_store.Log_store.backend s))
          .El_store.Backend.bytes_written);
  }

(* [Log_store.create] truncates, so every prepared run starts from a
   blank image; the file variant gets a unique image inside the
   caller's directory so parallel sweep slices never clobber one
   another. *)
let create_store cfg =
  match cfg.backend with
  | Sim -> None
  | Mem_store -> Some (El_store.Log_store.create (El_store.Backend.mem ()))
  | File_store dir ->
    let path = Filename.temp_file ~temp_dir:dir "el_store" ".img" in
    Some (El_store.Log_store.create (El_store.Backend.file ~path))

let build_instance engine (cfg : config) ?obs ?inj ~store ~num_objects () =
  (match (obs, store) with
  | Some o, Some s ->
    let pwrites = El_obs.Obs.counter o "store.pwrites" in
    let bytes = El_obs.Obs.counter o "store.bytes" in
    let barriers = El_obs.Obs.counter o "store.barriers" in
    El_store.Backend.set_tap
      (El_store.Log_store.backend s)
      (Some
         (function
           | El_store.Backend.Pwrite n ->
             El_metrics.Counter.add pwrites 1;
             El_metrics.Counter.add bytes n
           | El_store.Backend.Pread _ -> ()
           | El_store.Backend.Barrier -> El_metrics.Counter.add barriers 1))
  | _ -> ());
  (* Flush_array stripes oids evenly over its drives, so the plant's
     range is padded up to a multiple of the drive count; the padding
     oids are simply never written. *)
  let num_objects =
    let d = max 1 cfg.flush_drives in
    (num_objects + d - 1) / d * d
  in
  let stable = Stable_db.create ~num_objects in
  let flush =
    Flush_array.create engine ~drives:cfg.flush_drives
      ~transfer_time:cfg.flush_transfer ~num_objects
      ~scheduling:cfg.flush_scheduling ?obs ?fault:inj ?store ()
  in
  let manager =
    match cfg.kind with
    | Ephemeral policy ->
      El_log
        (El_manager.create engine ~policy ~flush ~stable ~pooled:cfg.pooling
           ?obs ?fault:inj ?store ())
    | Firewall size_blocks ->
      Fw_log (Fw_manager.create engine ~size_blocks ?obs ?fault:inj ?store ())
    | Hybrid queue_sizes ->
      Hybrid_log
        (Hybrid_manager.create engine ~queue_sizes ~flush ~stable
           ~pooled:cfg.pooling ?obs ?fault:inj ?store ())
  in
  let sink = sink_of manager in
  (* Degraded mode: under a fault storm the flush backlog grows
     without bound; past [shed_backlog] newly arriving transactions
     are shed — admitted, then immediately killed and aborted — so
     the system degrades instead of diverging (§5's stress shedding).
     The wrapper sits inside [wrap_sink] so external oracles see the
     begin and, through the composite kill, the shed itself. *)
  let shed_kill = ref (fun (_ : Ids.Tid.t) -> ()) in
  let sink =
    match inj with
    | Some i -> (
      match (El_fault.Injector.plan i).El_fault.Fault_plan.degraded with
      | None -> sink
      | Some d ->
        let inner = sink in
        {
          inner with
          Generator.begin_tx =
            (fun ~tid ~expected_duration ->
              inner.Generator.begin_tx ~tid ~expected_duration;
              let backlog = Flush_array.pending flush in
              if backlog >= d.El_fault.Fault_plan.shed_backlog then begin
                El_fault.Injector.count_shed i;
                (match obs with
                | None -> ()
                | Some o ->
                  El_obs.Obs.emit o El_obs.Event.Harness
                    (El_obs.Event.Shed
                       { tid = Ids.Tid.to_int tid; backlog }));
                !shed_kill tid;
                inner.Generator.request_abort ~tid
              end);
        })
    | None -> sink
  in
  {
    i_stable = stable;
    i_flush = flush;
    i_manager = manager;
    i_store = store;
    i_sink = sink;
    i_set_on_kill =
      (fun f ->
        shed_kill := f;
        set_on_kill manager f);
  }

let prepare ?(wrap_sink = fun sink -> sink) cfg =
  if cfg.shards <> 1 then
    invalid_arg
      "Experiment.prepare: shards > 1 runs go through El_shard.Shard_group";
  let engine = Engine.create ~seed:cfg.seed () in
  let obs =
    Option.map (fun c -> El_obs.Obs.create ~config:c engine) cfg.observer
  in
  (* [None] for the empty plan: every component then takes its
     fault-free path, so a default config is byte-identical to a build
     without fault injection. *)
  let inj = El_fault.Injector.create cfg.fault in
  let inst =
    build_instance engine cfg ?obs ?inj ~store:(create_store cfg)
      ~num_objects:cfg.num_objects ()
  in
  let flush = inst.i_flush in
  let sink = wrap_sink inst.i_sink in
  (* Contention hooks feed the trace ring only — observability, never
     control flow, so on/off observer identity holds under skew too. *)
  let on_contention ~tid ~oid ~attempt =
    match obs with
    | None -> ()
    | Some o ->
      El_obs.Obs.emit o El_obs.Event.Harness
        (El_obs.Event.Contention
           { tid = Ids.Tid.to_int tid; oid = Ids.Oid.to_int oid; attempt })
  in
  let on_retry ~tid ~attempt =
    match obs with
    | None -> ()
    | Some o ->
      El_obs.Obs.emit o El_obs.Event.Harness
        (El_obs.Event.Retry { tid = Ids.Tid.to_int tid; attempt })
  in
  let generator =
    Generator.create engine ~sink ~mix:cfg.mix ~arrival_rate:cfg.arrival_rate
      ~runtime:cfg.runtime ~arrival_process:cfg.arrival_process
      ~abort_fraction:cfg.abort_fraction ~draw:cfg.draw ~lifetime:cfg.lifetime
      ~max_retries:cfg.max_retries ~retry_backoff:cfg.retry_backoff
      ~on_contention ~on_retry ~num_objects:cfg.num_objects ()
  in
  inst.i_set_on_kill (Generator.kill generator);
  (* Time-series probes: the backlog/occupancy/memory curves of §4.
     All read-only, sampled at dispatch boundaries by the installed
     observer, so the simulation itself is untouched. *)
  (match obs with
  | None -> ()
  | Some o ->
    El_obs.Obs.add_probe o ~name:"flush_backlog" (fun () ->
        float_of_int (Flush_array.pending flush));
    El_obs.Obs.add_probe o ~name:"active_tx" (fun () ->
        float_of_int (Generator.active generator));
    El_obs.Obs.add_probe o ~name:"awaiting_ack" (fun () ->
        float_of_int (Generator.awaiting_ack generator));
    let ring_probes ring occupied =
      Array.iteri
        (fun i _ ->
          El_obs.Obs.add_probe o
            ~name:(Printf.sprintf "%s%d_occupancy" ring i)
            (fun () -> float_of_int (occupied ()).(i)))
        (occupied ())
    in
    (match inst.i_manager with
    | El_log m ->
      ring_probes "gen" (fun () -> El_manager.occupied_blocks m);
      El_obs.Obs.add_probe o ~name:"live_memory_bytes" (fun () ->
          float_of_int
            (El_core.Ledger.memory_bytes (El_manager.ledger m)))
    | Fw_log m ->
      El_obs.Obs.add_probe o ~name:"fw_occupancy" (fun () ->
          float_of_int (Fw_manager.occupied_blocks m));
      El_obs.Obs.add_probe o ~name:"live_memory_bytes" (fun () ->
          float_of_int (Fw_manager.stats m).Fw_manager.current_memory_bytes)
    | Hybrid_log m ->
      ring_probes "queue" (fun () -> Hybrid_manager.occupied_blocks m);
      El_obs.Obs.add_probe o ~name:"live_memory_bytes" (fun () ->
          float_of_int
            (Hybrid_manager.stats m).Hybrid_manager.current_memory_bytes));
    El_obs.Obs.install o);
  let finish () =
    let overloaded =
      try
        Engine.run engine ~until:cfg.runtime;
        false
      with El_manager.Log_overloaded _ -> true
    in
    (match obs with Some o -> El_obs.Obs.finish o | None -> ());
    collect_instance cfg ~generator ~overloaded inst
  in
  {
    engine;
    manager = inst.i_manager;
    obs;
    fault = inj;
    store = inst.i_store;
    finish;
  }

let run cfg =
  let live = prepare cfg in
  Fun.protect ~finally:(fun () -> dispose live) live.finish
