open El_model
module Engine = El_sim.Engine
module Generator = El_workload.Generator
module Recovery = El_recovery.Recovery
module Experiment = El_harness.Experiment

(* One shard's 2PC control region as a slot pool.  Slots hold the
   PREPARE marker / decision record oids of in-flight cross-shard
   transactions; a slot returns to the pool when its record's
   transaction settles, so no two live transactions ever write the
   same control oid (the ledger's one-active-writer-per-object rule
   extends to the control region). *)
type slot_pool = { busy : bool array; mutable cursor : int; mutable free : int }

let make_slot_pool n = { busy = Array.make n false; cursor = 0; free = n }

let alloc_slot sp =
  let n = Array.length sp.busy in
  if sp.free = 0 then
    failwith
      (Printf.sprintf
         "Shard_group: control region exhausted — a shard holds at most %d \
          cross-shard transactions in flight"
         n);
  let rec find i =
    let s = (sp.cursor + i) mod n in
    if sp.busy.(s) then find (i + 1) else s
  in
  let s = find 0 in
  sp.busy.(s) <- true;
  sp.cursor <- (s + 1) mod n;
  sp.free <- sp.free - 1;
  s

let free_slot sp s =
  if sp.busy.(s) then begin
    sp.busy.(s) <- false;
    sp.free <- sp.free + 1
  end

(* One global transaction's routing state around its pure {!Two_pc}
   machine. *)
type gtx = {
  pc : Two_pc.t;
  duration : Time.t;
  mutable client_ack : (Time.t -> unit) option;
  mutable marker_slots : (int * int) list;  (* (shard, slot) to free *)
  mutable decision_slot : int option;
  mutable dead_shards : int list;  (* branches the manager killed *)
  (* the control oids this transaction wrote, retained after the slots
     are freed: the oracle reads durability evidence from the
     recovered database at these oids (versions are gtids, monotone
     under slot reuse), which outlives the ephemeral log records *)
  mutable marker_oids : (int * Ids.Oid.t) list;  (* (shard, ctl oid) *)
  mutable decision_oid : Ids.Oid.t option;
}

type gtx_view = {
  v_gtid : int;
  v_coordinator : int;
  v_participants : int list;
  v_phase : Two_pc.phase;
  v_marker_oids : (int * Ids.Oid.t) list;
  v_decision_oid : Ids.Oid.t option;
}

type t = {
  cfg : Experiment.config;
  sg_engine : Engine.t;
  part : Partition.t;
  sg_instances : Experiment.instance array;
  sg_inj : El_fault.Injector.t option;
  sinks : Generator.sink array;  (* oracle-wrapped shard sinks *)
  slot_pools : slot_pool array;
  registry : (int, gtx) Hashtbl.t;  (* gtid -> live gtx *)
  on_cross : gtx -> unit;  (* each transaction as it enters 2PC *)
  mutable cross_n : int;  (* transactions that entered 2PC *)
  mutable gen : Generator.t option;
  mutable singles : int;
  mutable cross : int;
  mutable blocked_n : int;
  mutable prepares : int;
  shard_commits : int array;
  branch_ack_n : int array;
  decision_n : int array;
}

let marker_size = 16
let decision_duration = Time.of_ms 1

(* Control records carry the gtid as their version, shifted by one:
   versions must be positive (the durable-log spec checks it) and
   gtids start at 0.  Still strictly monotone per reused slot. *)
let ctl_version ~gtid = gtid + 1

let engine t = t.sg_engine
let instances t = t.sg_instances
let injector t = t.sg_inj
let generator t = Option.get t.gen

let view g =
  {
    v_gtid = Two_pc.gtid g.pc;
    v_coordinator = Two_pc.coordinator g.pc;
    v_participants = Two_pc.participants g.pc;
    v_phase = Two_pc.phase g.pc;
    v_marker_oids = g.marker_oids;
    v_decision_oid = g.decision_oid;
  }

type cross = gtx

let cross_count t = t.cross_n
let cross_view = view

let single_committed t =
  if t.cfg.Experiment.shards = 1 then Generator.committed (generator t)
  else t.singles

let cross_committed t = t.cross
let blocked t = t.blocked_n

let shard_committed t =
  if t.cfg.Experiment.shards = 1 then [| Generator.committed (generator t) |]
  else Array.copy t.shard_commits

let branch_acks t = Array.copy t.branch_ack_n

(* --- The router ------------------------------------------------- *)

let settle t g =
  Hashtbl.remove t.registry (Two_pc.gtid g.pc)

(* Single-shard fast path: the branch's local commit IS the global
   commit — prepare and decision collapse onto one durable record (the
   transfer-of-coordination optimisation), so recovery treats it as a
   plain local transaction. *)
let single_ack t g p at =
  (match Two_pc.branch_acked g.pc ~shard:p with
  | `Start_decision -> Two_pc.decision_acked g.pc
  | `Wait -> assert false);
  t.singles <- t.singles + 1;
  t.shard_commits.(p) <- t.shard_commits.(p) + 1;
  settle t g;
  (Option.get g.client_ack) at

let decision_ack t g c at =
  match Two_pc.phase g.pc with
  | Two_pc.Blocked -> ()  (* killed mid-decide; presumed abort resolves *)
  | _ ->
    Two_pc.decision_acked g.pc;
    t.cross <- t.cross + 1;
    t.shard_commits.(c) <- t.shard_commits.(c) + 1;
    t.decision_n.(c) <- t.decision_n.(c) + 1;
    (match g.decision_slot with
    | Some s ->
      free_slot t.slot_pools.(c) s;
      g.decision_slot <- None
    | None -> ());
    settle t g;
    (Option.get g.client_ack) at

(* All branches durable: run the decision transaction on the
   coordinator.  Every call is re-checked against the phase — the
   coordinator's manager may kill the decision transaction while it is
   still active (an eviction reaching the last head), which blocks the
   protocol. *)
let start_decision t g =
  let c = Two_pc.coordinator g.pc in
  let gtid = Two_pc.gtid g.pc in
  let dtid = Two_pc.decision_tid ~gtid in
  let slot = alloc_slot t.slot_pools.(c) in
  g.decision_slot <- Some slot;
  let doid = Partition.ctl_oid t.part ~shard:c ~slot in
  g.decision_oid <- Some doid;
  let sink = t.sinks.(c) in
  sink.Generator.begin_tx ~tid:dtid ~expected_duration:decision_duration;
  if Two_pc.phase g.pc = Two_pc.Deciding then begin
    sink.Generator.write_data ~tid:dtid ~oid:doid
      ~version:(ctl_version ~gtid) ~size:marker_size;
    if Two_pc.phase g.pc = Two_pc.Deciding then
      sink.Generator.request_commit ~tid:dtid ~on_ack:(decision_ack t g c)
  end

let branch_ack t g p at =
  ignore at;
  t.branch_ack_n.(p) <- t.branch_ack_n.(p) + 1;
  (* the branch is durably committed: its marker record has settled and
     the slot can carry another transaction's marker *)
  (match List.assoc_opt p g.marker_slots with
  | Some s ->
    free_slot t.slot_pools.(p) s;
    g.marker_slots <- List.remove_assoc p g.marker_slots
  | None -> ());
  match Two_pc.phase g.pc with
  | Two_pc.Blocked -> ()  (* protocol already died; nothing to drive *)
  | _ -> (
    match Two_pc.branch_acked g.pc ~shard:p with
    | `Wait -> ()
    | `Start_decision -> start_decision t g)

let route_begin t ~tid ~expected_duration =
  let gtid = Ids.Tid.to_int tid in
  let g =
    {
      pc =
        Two_pc.create ~gtid ~coordinator:(Partition.coordinator t.part ~gtid);
      duration = expected_duration;
      client_ack = None;
      marker_slots = [];
      decision_slot = None;
      dead_shards = [];
      marker_oids = [];
      decision_oid = None;
    }
  in
  Hashtbl.replace t.registry gtid g
(* No shard sees anything yet: branches open lazily at first touch, so
   a transaction costs exactly the shards it writes. *)

let route_write t ~tid ~oid ~version ~size =
  match Hashtbl.find_opt t.registry (Ids.Tid.to_int tid) with
  | None -> ()  (* killed earlier in this same dispatch; events raced *)
  | Some g ->
    let p = Partition.owner t.part oid in
    let sink = t.sinks.(p) in
    (match Two_pc.touch g.pc ~shard:p with
    | `Begun -> sink.Generator.begin_tx ~tid ~expected_duration:g.duration
    | `Already -> ());
    (* the begin may have been shed (degraded mode kills at admission):
       the transaction is then already dead *)
    if Two_pc.phase g.pc = Two_pc.Running then
      sink.Generator.write_data ~tid ~oid ~version ~size

let route_abort t ~tid =
  match Hashtbl.find_opt t.registry (Ids.Tid.to_int tid) with
  | None -> ()
  | Some g ->
    let ps = Two_pc.participants g.pc in
    Two_pc.abort g.pc;
    List.iter
      (fun p ->
        if not (List.mem p g.dead_shards) then
          t.sinks.(p).Generator.request_abort ~tid)
      ps;
    settle t g

let route_commit t ~tid ~on_ack =
  let gtid = Ids.Tid.to_int tid in
  match Hashtbl.find_opt t.registry gtid with
  | None -> ()
  | Some g ->
    (* A write-free transaction still needs a durable commit record to
       acknowledge: open its branch on the coordinator. *)
    if Two_pc.participants g.pc = [] then begin
      let c = Two_pc.coordinator g.pc in
      ignore (Two_pc.touch g.pc ~shard:c);
      t.sinks.(c).Generator.begin_tx ~tid ~expected_duration:g.duration
    end;
    if Two_pc.phase g.pc = Two_pc.Running then begin
      g.client_ack <- Some on_ack;
      match Two_pc.start_commit g.pc with
      | [ p ] ->
        t.sinks.(p).Generator.request_commit ~tid ~on_ack:(single_ack t g p)
      | ps ->
        t.cross_n <- t.cross_n + 1;
        t.on_cross g;
        List.iter
          (fun p ->
            match Two_pc.phase g.pc with
            | Two_pc.Preparing _ ->
              (* PREPARE marker: a control-region record carrying the
                 gtid, durable with the branch's own commit *)
              let slot = alloc_slot t.slot_pools.(p) in
              g.marker_slots <- (p, slot) :: g.marker_slots;
              let moid = Partition.ctl_oid t.part ~shard:p ~slot in
              g.marker_oids <- (p, moid) :: g.marker_oids;
              t.prepares <- t.prepares + 1;
              t.sinks.(p).Generator.write_data ~tid ~oid:moid
                ~version:(ctl_version ~gtid) ~size:marker_size;
              (match Two_pc.phase g.pc with
              | Two_pc.Preparing _ ->
                t.sinks.(p).Generator.request_commit ~tid
                  ~on_ack:(branch_ack t g p)
              | Two_pc.Blocked -> ()  (* this branch died mid-marker *)
              | _ -> assert false)
            | Two_pc.Blocked ->
              (* the protocol died while fanning out; this branch was
                 never asked to prepare, so abort it outright *)
              if not (List.mem p g.dead_shards) then
                t.sinks.(p).Generator.request_abort ~tid
            | _ -> assert false)
          ps
    end

(* Manager-initiated kills, per shard.  Decision transactions belong to
   the router, not the generator; a Running transaction dies whole
   (siblings aborted, generator told); a mid-protocol kill blocks the
   transaction — 2PC's classic failure mode, resolved by presumed
   abort at recovery. *)
let on_manager_kill t i tid =
  if Two_pc.is_decision_tid tid then begin
    match Hashtbl.find_opt t.registry (Two_pc.gtid_of_decision tid) with
    | None -> ()
    | Some g ->
      (match Two_pc.kill g.pc with
      | `Blocked -> t.blocked_n <- t.blocked_n + 1
      | `Kill_generator -> assert false (* decision txs are never Running *));
      g.dead_shards <- i :: g.dead_shards;
      (* the slot is deliberately leaked, not freed: the decision was
         never durable, and slot reuse must stay proof of durable
         settlement (the oracle's monotone-version evidence) *)
      g.decision_slot <- None;
      settle t g
  end
  else
    match Hashtbl.find_opt t.registry (Ids.Tid.to_int tid) with
    | None -> Generator.kill (generator t) tid
    | Some g -> (
      let prior = Two_pc.phase g.pc in
      match Two_pc.kill g.pc with
      | `Kill_generator ->
        g.dead_shards <- i :: g.dead_shards;
        let ps = Two_pc.participants g.pc in
        List.iter
          (fun p -> if p <> i then t.sinks.(p).Generator.request_abort ~tid)
          ps;
        settle t g;
        Generator.kill (generator t) tid
      | `Blocked -> (
        match prior with
        | Two_pc.Preparing _ | Two_pc.Deciding ->
          t.blocked_n <- t.blocked_n + 1;
          g.dead_shards <- i :: g.dead_shards;
          settle t g
        | _ -> () (* repeated kill of an already-dead transaction *)))

(* --- Construction ------------------------------------------------ *)

let prepare ?(wrap_shard_sink = fun _ sink -> sink)
    ?(on_shard_kill = fun _ _ -> ()) ?(on_cross = ignore)
    (cfg : Experiment.config) =
  if cfg.Experiment.shards < 1 then
    invalid_arg "Shard_group.prepare: shards must be >= 1";
  if cfg.Experiment.observer <> None then
    invalid_arg "Shard_group.prepare: the observer rides the solo path only";
  let n = cfg.Experiment.shards in
  (* Construction order matches Experiment.prepare exactly — engine,
     injector, instance, generator, kill hook — so a 1-shard group is
     the solo run, byte for byte. *)
  let sg_engine = Engine.create ~seed:cfg.Experiment.seed () in
  let inj = El_fault.Injector.create cfg.Experiment.fault in
  let part =
    Partition.create ~shards:n ~num_objects:cfg.Experiment.num_objects ()
  in
  (* Each plant's flush array spans data + control oids. *)
  let sg_instances =
    Array.init n (fun _ ->
        Experiment.build_instance sg_engine cfg ?inj
          ~store:(Experiment.create_store cfg)
          ~num_objects:(Partition.total_objects part) ())
  in
  let sinks =
    Array.mapi
      (fun i inst -> wrap_shard_sink i inst.Experiment.i_sink)
      sg_instances
  in
  let t =
    {
      cfg;
      sg_engine;
      part;
      sg_instances;
      sg_inj = inj;
      sinks;
      slot_pools =
        Array.init n (fun _ -> make_slot_pool (Partition.ctl_slots part));
      registry = Hashtbl.create 1024;
      on_cross;
      cross_n = 0;
      gen = None;
      singles = 0;
      cross = 0;
      blocked_n = 0;
      prepares = 0;
      shard_commits = Array.make n 0;
      branch_ack_n = Array.make n 0;
      decision_n = Array.make n 0;
    }
  in
  let sink =
    if n = 1 then sinks.(0)  (* no router at all: the solo fast path *)
    else
      {
        Generator.begin_tx =
          (fun ~tid ~expected_duration -> route_begin t ~tid ~expected_duration);
        write_data =
          (fun ~tid ~oid ~version ~size ->
            route_write t ~tid ~oid ~version ~size);
        request_commit = (fun ~tid ~on_ack -> route_commit t ~tid ~on_ack);
        request_abort = (fun ~tid -> route_abort t ~tid);
      }
  in
  let generator =
    Generator.create sg_engine ~sink ~mix:cfg.Experiment.mix
      ~arrival_rate:cfg.Experiment.arrival_rate
      ~runtime:cfg.Experiment.runtime
      ~arrival_process:cfg.Experiment.arrival_process
      ~abort_fraction:cfg.Experiment.abort_fraction ~draw:cfg.Experiment.draw
      ~lifetime:cfg.Experiment.lifetime
      ~max_retries:cfg.Experiment.max_retries
      ~retry_backoff:cfg.Experiment.retry_backoff
      ~num_objects:cfg.Experiment.num_objects ()
  in
  t.gen <- Some generator;
  Array.iteri
    (fun i inst ->
      inst.Experiment.i_set_on_kill (fun tid ->
          on_shard_kill i tid;
          on_manager_kill t i tid))
    sg_instances;
  t

(* --- Driving and collecting ------------------------------------- *)

let drain_managers t =
  Array.iter
    (fun inst -> Experiment.drain inst.Experiment.i_manager)
    t.sg_instances

type shard_stat = {
  ss_shard : int;
  ss_lo : int;
  ss_hi : int;
  ss_committed : int;
  ss_branch_acks : int;
  ss_decisions : int;
  ss_result : Experiment.result;
}

type run_result = {
  r_global : Experiment.result;
  r_shards : shard_stat array;
  r_single_committed : int;
  r_cross_committed : int;
  r_prepares : int;
  r_blocked : int;
}

(* Plant counters sum; workload-global counters (identical in every
   element — they read the one shared generator) come from shard 0;
   backlog peaks don't add, they max; manager stats list every plant,
   in shard order. *)
let merge_results (cfg : Experiment.config) (rs : Experiment.result array) =
  let sum f = Array.fold_left (fun a r -> a + f r) 0 rs in
  let maxi f = Array.fold_left (fun a r -> max a (f r)) 0 rs in
  let r0 = rs.(0) in
  let per_gen = Array.make (Array.length r0.Experiment.log_writes_per_gen) 0 in
  Array.iter
    (fun (r : Experiment.result) ->
      Array.iteri
        (fun i v -> per_gen.(i) <- per_gen.(i) + v)
        r.Experiment.log_writes_per_gen)
    rs;
  let log_writes_total = sum (fun r -> r.Experiment.log_writes_total) in
  let flushes = sum (fun r -> r.Experiment.flushes_completed) in
  let mean_distance =
    if flushes = 0 then 0.0
    else
      Array.fold_left
        (fun a (r : Experiment.result) ->
          a
          +. (r.Experiment.flush_mean_distance
             *. float_of_int r.Experiment.flushes_completed))
        0.0 rs
      /. float_of_int flushes
  in
  let evictions = sum (fun r -> r.Experiment.evictions) in
  {
    r0 with
    Experiment.total_blocks = sum (fun r -> r.Experiment.total_blocks);
    log_writes_per_gen = per_gen;
    log_writes_total;
    log_write_rate =
      float_of_int log_writes_total /. Time.to_sec_f cfg.Experiment.runtime;
    peak_memory_bytes = sum (fun r -> r.Experiment.peak_memory_bytes);
    evictions;
    feasible =
      (not r0.Experiment.overloaded)
      && r0.Experiment.killed = 0 && evictions = 0;
    flushes_completed = flushes;
    forced_flushes = sum (fun r -> r.Experiment.forced_flushes);
    flush_mean_distance = mean_distance;
    flush_backlog_peak = maxi (fun r -> r.Experiment.flush_backlog_peak);
    forwarded_records = sum (fun r -> r.Experiment.forwarded_records);
    recirculated_records = sum (fun r -> r.Experiment.recirculated_records);
    stats = List.concat_map (fun r -> r.Experiment.stats) (Array.to_list rs);
    store_pwrites = sum (fun r -> r.Experiment.store_pwrites);
    store_barriers = sum (fun r -> r.Experiment.store_barriers);
    store_bytes_written = sum (fun r -> r.Experiment.store_bytes_written);
  }

let collect t ~overloaded =
  let gen = generator t in
  let rs =
    Array.map
      (Experiment.collect_instance t.cfg ~generator:gen ~overloaded)
      t.sg_instances
  in
  let global =
    if Array.length rs = 1 then rs.(0) else merge_results t.cfg rs
  in
  let commits = shard_committed t in
  let shards =
    Array.mapi
      (fun i r ->
        let lo, hi = Partition.range t.part i in
        {
          ss_shard = i;
          ss_lo = lo;
          ss_hi = hi;
          ss_committed = commits.(i);
          ss_branch_acks = t.branch_ack_n.(i);
          ss_decisions = t.decision_n.(i);
          ss_result = r;
        })
      rs
  in
  {
    r_global = global;
    r_shards = shards;
    r_single_committed = single_committed t;
    r_cross_committed = t.cross;
    r_prepares = t.prepares;
    r_blocked = t.blocked_n;
  }

let finish t =
  let overloaded =
    try
      Engine.run t.sg_engine ~until:t.cfg.Experiment.runtime;
      false
    with El_core.El_manager.Log_overloaded _ -> true
  in
  collect t ~overloaded

let dispose t = Array.iter Experiment.dispose_instance t.sg_instances

let run cfg =
  let t = prepare cfg in
  Fun.protect ~finally:(fun () -> dispose t) (fun () -> finish t)

let run_global cfg = (run cfg).r_global

(* --- Crash capture ---------------------------------------------- *)

let crash_images t =
  Array.mapi
    (fun i inst ->
      let refuse kind =
        invalid_arg
          (Printf.sprintf
             "Shard_group.crash_images: shard %d is %s, which has no crash \
              image (EL only)"
             i kind)
      in
      match inst.Experiment.i_manager with
      | Experiment.El_log m -> Recovery.crash m
      | Experiment.Fw_log _ -> refuse "fw"
      | Experiment.Hybrid_log _ -> refuse "hybrid")
    t.sg_instances
