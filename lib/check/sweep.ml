open El_model
module Engine = El_sim.Engine
module Experiment = El_harness.Experiment
module Generator = El_workload.Generator
module Mix = El_workload.Mix
module Tx_type = El_workload.Tx_type
module Policy = El_core.Policy
module El_manager = El_core.El_manager
module Recovery = El_recovery.Recovery
module Preset = El_workload.Workload_preset

type outcome = {
  kind : string;
  seed : int;
  shards : int;
  events : int;
  points : int;
  recoveries : int;
  failures : (int * string) list;
  overloaded : bool;
  faulted : bool;
  committed : int;
  killed : int;
  contention_aborts : int;
  contention_retries : int;
  max_records_scanned : int;
  torn_blocks : int;
  torn_records : int;
  io_retries : int;
  io_remaps : int;
  sheds : int;
  spec_checks : int;
  cross_committed : int;
  blocked_cross : int;
  atomic_checks : int;
}

(* The composite atomic-commit oracle over the cross-shard
   transactions, judged by open transaction.  Durable evidence comes in
   two forms.  The committed-tid sets only cover transactions whose
   records are still in the log — ephemeral logging discards them once
   flushed — so the lasting evidence is the recovered database's
   version at the transaction's control oids: versions there are
   gtids, slots are reused only after durable settlement, and versions
   are monotone per oid, so [recovered version >= gtid] proves the
   record was durable no matter how long ago the log let go of it.

   An acked transaction whose decision oid and every marker oid the
   live stable databases already serve at [>= ctl_version gtid] can
   fail no later point: a recovered version is at least the stable
   one, stable versions only rise, and slot reuse only raises control
   versions.  It is judged once more and then dropped; every
   transaction still counts in [atomic_checks] at every point. *)
module Atomic = struct
  module Shard_group = El_shard.Shard_group
  module Two_pc = El_shard.Two_pc
  module IntSet = Set.Make (Int)

  type t = {
    mutable fresh : Shard_group.cross list;
        (** entered 2PC since the last check, newest first *)
    mutable open_ : Shard_group.cross list;
        (** still judged, oldest first *)
    mutable judged : int;
  }

  let create () = { fresh = []; open_ = []; judged = 0 }
  let add t x = t.fresh <- x :: t.fresh
  let judged t = t.judged

  let check t sg (results : Recovery.result array) =
    let instances = Shard_group.instances sg in
    let sets =
      Array.map
        (fun (r : Recovery.result) ->
          List.fold_left
            (fun s tid -> IntSet.add (Ids.Tid.to_int tid) s)
            IntSet.empty r.Recovery.committed_tids)
        results
    in
    let at_least db oid gtid =
      match El_disk.Stable_db.version db oid with
      | Some v -> v >= Shard_group.ctl_version ~gtid
      | None -> false
    in
    let ctl_durable shard oid gtid =
      at_least results.(shard).Recovery.recovered oid gtid
    in
    let installed shard oid gtid =
      at_least instances.(shard).Experiment.i_stable oid gtid
    in
    let failures = ref [] in
    let judge (v : Shard_group.gtx_view) =
      let gtid = v.Shard_group.v_gtid in
      let decided =
        IntSet.mem
          (Ids.Tid.to_int (Two_pc.decision_tid ~gtid))
          sets.(v.Shard_group.v_coordinator)
        ||
        match v.Shard_group.v_decision_oid with
        | Some oid -> ctl_durable v.Shard_group.v_coordinator oid gtid
        | None -> false
      in
      let branches_durable =
        List.map
          (fun p ->
            IntSet.mem gtid sets.(p)
            ||
            match List.assoc_opt p v.Shard_group.v_marker_oids with
            | Some oid -> ctl_durable p oid gtid
            | None -> false)
          v.Shard_group.v_participants
      in
      let fail msg = failures := (gtid, msg) :: !failures in
      if not (Two_pc.atomic_ok ~decision_durable:decided ~branches_durable)
      then
        fail
          (Printf.sprintf
             "atomic commit violated: gtid %d decided on coordinator %d but \
              branches durable only on [%s] of [%s]"
             gtid v.Shard_group.v_coordinator
             (String.concat ","
                (List.filteri
                   (fun i _ -> List.nth branches_durable i)
                   v.Shard_group.v_participants
                |> List.map string_of_int))
             (String.concat ","
                (List.map string_of_int v.Shard_group.v_participants)));
      if v.Shard_group.v_phase = Two_pc.Acked && not decided then
        fail
          (Printf.sprintf
             "durability violated: gtid %d was acknowledged but its decision \
              record did not survive the crash"
             gtid)
    in
    let settled (v : Shard_group.gtx_view) =
      let gtid = v.Shard_group.v_gtid in
      v.Shard_group.v_phase = Two_pc.Acked
      && (match v.Shard_group.v_decision_oid with
         | Some oid -> installed v.Shard_group.v_coordinator oid gtid
         | None -> false)
      && List.for_all
           (fun p ->
             match List.assoc_opt p v.Shard_group.v_marker_oids with
             | Some oid -> installed p oid gtid
             | None -> false)
           v.Shard_group.v_participants
    in
    let judged = t.open_ @ List.rev t.fresh in
    t.fresh <- [];
    t.judged <- List.length judged;
    t.open_ <-
      List.filter
        (fun x ->
          let v = Shard_group.cross_view x in
          judge v;
          not (settled v))
        judged;
    List.rev !failures
end

let kind_name = function
  | Experiment.Ephemeral _ -> "el"
  | Experiment.Firewall _ -> "fw"
  | Experiment.Hybrid _ -> "hybrid"

(* One slice of a (possibly partitioned) sweep.  Slice [s] of [slices]
   replays the full seeded run — the simulation is deterministic and
   owns all its state, so every slice sees bit-identical states at
   every pause — but audits only the pauses whose global index is
   ≡ s (mod slices), and only slice 0 performs the settled-state
   checks.  With [slices = 1] this is exactly the historical serial
   sweep.  A slice returns its outcome, whose counts of what it did at
   its own pauses (recoveries, torn damage, spec and atomic checks, the
   largest scan) cover those pauses only, and its failures apart, each
   tagged with the global pause index it was detected at ([max_int]
   for post-settle checks) so slices merge back into the serial
   reporting order.

   Every sweep runs over an [El_shard.Shard_group]; a solo config is
   the 1-shard group.  Each shard gets its own spec tracker, the one
   witness of its sink traffic, whatever the flags say: it judges every
   install into an EL shard's stable database, and its crash judge
   every recovered crash image.  [oracle] gates the settled comparisons
   against the plants, [spec] the spec's own checks (the only ones
   counted in [spec_checks]).  With several shards the {e composite
   oracle} adds the global atomic-commit invariant over the recovered
   per-shard committed sets: no crash point may recover a cross-shard
   transaction as committed on one shard (decision durable) while a
   participant branch is missing — and no acknowledged transaction may
   lack its durable decision.  At one shard none of that runs, and
   failure messages name no shard. *)
let run_slice ~slice ~slices ~stride ~max_points ~recover ~oracle ~spec
    (cfg : Experiment.config) =
  let module Shard_group = El_shard.Shard_group in
  let composite = cfg.Experiment.shards > 1 in
  let is_el =
    match cfg.Experiment.kind with Experiment.Ephemeral _ -> true | _ -> false
  in
  (* The per-shard committed sets jointly satisfy atomic commit for
     every transaction that ever entered 2PC; the check keeps only the
     ones still open, and only a sweep that crash-recovers hands it
     any. *)
  let atomic = Atomic.create () in
  let on_cross =
    if composite && recover && is_el then Atomic.add atomic else ignore
  in
  let sg, trackers = Spec_tracker.prepare ~on_cross cfg in
  let instances = Shard_group.instances sg in
  let engine = Shard_group.engine sg in
  let generator = Shard_group.generator sg in
  let failures = ref [] in
  let pauses = ref 0 in
  let recoveries = ref 0 in
  let max_scanned = ref 0 in
  let torn_blocks = ref 0 in
  let torn_records = ref 0 in
  let atomic_checks = ref 0 in
  let record_failure ~tag msg =
    failures := (tag, Engine.events_dispatched engine, msg) :: !failures
  in
  (* Every finding about one shard goes through here, so with several
     shards each names its shard. *)
  let shard_failure ~tag i msg =
    record_failure ~tag
      (if composite then Printf.sprintf "shard %d: %s" i msg else msg)
  in
  let guarded ~tag i f =
    try f () with Auditor.Audit_failure m -> shard_failure ~tag i m
  in
  let audit_plant ~tag i inst =
    guarded ~tag i (fun () -> Auditor.audit_manager inst.Experiment.i_manager);
    guarded ~tag i (fun () -> Spec_tracker.check_installs trackers.(i))
  in
  let atomic_commit_check ~tag results =
    List.iter
      (fun (_, msg) -> record_failure ~tag msg)
      (Atomic.check atomic sg results);
    atomic_checks := !atomic_checks + Shard_group.cross_count sg
  in
  (* Crash every shard at the same engine instant, recover each and,
     unless this is the settled point the composite check adds, judge
     it. *)
  let crash_point ~tag ~judge =
    incr recoveries;
    let results =
      Array.mapi
        (fun i image ->
          let r = Recovery.recover image in
          if r.Recovery.records_scanned > !max_scanned then
            max_scanned := r.Recovery.records_scanned;
          torn_blocks := !torn_blocks + r.Recovery.torn_blocks;
          torn_records := !torn_records + r.Recovery.torn_records;
          if judge then begin
            let v = Spec_tracker.judge trackers.(i) image r in
            if not (Spec_tracker.ok v) then
              shard_failure ~tag i
                (Format.asprintf "crash recovery diverged: %a"
                   Spec_tracker.pp_verdict v)
          end;
          r)
        (Shard_group.crash_images sg)
    in
    if composite then atomic_commit_check ~tag results
  in
  let audit_point () =
    let tag = !pauses in
    incr pauses;
    if tag mod slices = slice then begin
      Array.iteri
        (fun i inst ->
          audit_plant ~tag i inst;
          if spec then
            guarded ~tag i (fun () ->
                Spec_tracker.check_invariant trackers.(i)))
        instances;
      if recover && is_el then crash_point ~tag ~judge:true
    end
  in
  let final = max_int in
  let status =
    try
      let continue = ref true in
      while !continue && !pauses < max_points do
        let n =
          Engine.run_steps engine ~until:cfg.Experiment.runtime
            ~max_steps:stride
        in
        audit_point ();
        if n < stride then continue := false
      done;
      (* Settle: finish the run, write out every partial buffer and let
         pending writes, acks and flushes complete. *)
      Engine.run engine ~until:cfg.Experiment.runtime;
      Shard_group.drain_managers sg;
      Engine.run_all engine;
      `Ok
    with
    | El_manager.Log_overloaded msg ->
      (* every slice hits the same overload at the same event; report
         it once *)
      if slice = 0 then
        record_failure ~tag:final (Printf.sprintf "log overloaded: %s" msg);
      `Overloaded
    | El_fault.Injector.Io_fatal { device; op; reason } ->
      (* fault streams are per-device and untouched by pauses, so
         every slice dies at the same op of the same device *)
      if slice = 0 then
        record_failure ~tag:final
          (Printf.sprintf "io fatal on %s op %d: %s"
             (El_fault.Fault_plan.device_name device)
             op reason);
      `Faulted
  in
  let overloaded = status = `Overloaded in
  if status = `Ok && slice = 0 then begin
    let guarded i f = guarded ~tag:final i f in
    let record_failure msg = record_failure ~tag:final msg in
    Array.iteri (audit_plant ~tag:final) instances;
    if oracle then begin
      (* Router conservation: every generator ack is a fast-path single
         or an acknowledged 2PC transaction — nothing else may ack. *)
      let gen_committed = Generator.committed generator in
      let singles = Shard_group.single_committed sg in
      let cross = Shard_group.cross_committed sg in
      if gen_committed <> singles + cross then
        record_failure
          (Printf.sprintf
             "generator committed %d transactions but the router saw %d \
              singles + %d cross-shard"
             gen_committed singles cross);
      (* Per-shard ack accounting: each shard's model counts its
         singles and decisions (shard_committed) plus its prepared
         branches.  Solo, that is every generator commit. *)
      let commits = Shard_group.shard_committed sg in
      let acks = Shard_group.branch_acks sg in
      Array.iteri
        (fun i t ->
          let expect = commits.(i) + acks.(i) in
          let got = Spec_tracker.committed_count t in
          if got <> expect then
            record_failure
              (if composite then
                 Printf.sprintf
                   "shard %d model saw %d acks, router accounted %d (%d \
                    commits + %d branch acks)"
                   i got expect commits.(i) acks.(i)
               else
                 Printf.sprintf
                   "generator committed %d transactions, the model saw %d \
                    acks"
                   expect got))
        trackers;
      Array.iteri
        (fun i inst ->
          match inst.Experiment.i_manager with
          | Experiment.El_log _ | Experiment.Hybrid_log _ ->
            guarded i (fun () ->
                Spec_tracker.check_settled_stable trackers.(i)
                  inst.Experiment.i_stable)
          | Experiment.Fw_log _ -> ())
        instances
    end;
    Array.iteri
      (fun i t ->
        List.iter (shard_failure ~tag:final i) (Spec_tracker.violations t);
        (* FW is exempt from the settled flush check, as from the
           stable comparison above: the baseline retires records by
           log-space reuse, not by a full drain to the database. *)
        match instances.(i).Experiment.i_manager with
        | Experiment.El_log _ | Experiment.Hybrid_log _ ->
          if spec then guarded i (fun () -> Spec_tracker.check_settled t)
        | Experiment.Fw_log _ -> ())
      trackers;
    (* One last composite check over the settled state: the in-doubt
       resolution of every cross-shard transaction must still satisfy
       atomic commit after all buffers drained.  Solo there is none,
       and the extra recovery would only be counted. *)
    if recover && is_el && composite then crash_point ~tag:final ~judge:false
  end;
  let injected count =
    match Shard_group.injector sg with Some i -> count i | None -> 0
  in
  let outcome =
    {
      kind = kind_name cfg.Experiment.kind;
      seed = cfg.Experiment.seed;
      shards = cfg.Experiment.shards;
      events = Engine.events_dispatched engine;
      points = !pauses;
      recoveries = !recoveries;
      failures = [];  (* [run] merges the tagged ones *)
      overloaded;
      faulted = status = `Faulted;
      committed = Generator.committed generator;
      killed = Generator.killed generator;
      contention_aborts = Generator.contention_aborts generator;
      contention_retries = Generator.retries generator;
      max_records_scanned = !max_scanned;
      torn_blocks = !torn_blocks;
      torn_records = !torn_records;
      io_retries = injected El_fault.Injector.retries;
      io_remaps = injected El_fault.Injector.remaps;
      sheds = injected El_fault.Injector.sheds;
      spec_checks =
        Array.fold_left (fun a t -> a + Spec_tracker.checks t) 0 trackers;
      cross_committed = Shard_group.cross_committed sg;
      blocked_cross = Shard_group.blocked sg;
      atomic_checks = !atomic_checks;
    }
  in
  Shard_group.dispose sg;
  (outcome, List.rev !failures)

let run ?(pool = El_par.Pool.serial) ?(stride = 100) ?(max_points = max_int)
    ?(recover = true) ?(oracle = true) ?(spec = false)
    (cfg : Experiment.config) =
  if stride <= 0 then invalid_arg "Sweep.run: stride must be positive";
  let slices = El_par.Pool.jobs pool in
  let parts =
    El_par.Pool.map pool
      (fun slice ->
        run_slice ~slice ~slices ~stride ~max_points ~recover ~oracle ~spec cfg)
      (List.init slices Fun.id)
  in
  (* Each pause is owned by exactly one slice and the settled-state
     tag only appears in slice 0, so a stable sort on the tag alone
     reproduces the serial reporting order exactly. *)
  let failures =
    List.concat_map snd parts
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare (a : int) b)
    |> List.map (fun (_, at, msg) -> (at, msg))
  in
  (* Every replay reaches the same run totals; what a slice did at its
     own pauses partitions with them, so summing reproduces the serial
     counts. *)
  let sum count = List.fold_left (fun a (o, _) -> a + count o) 0 parts in
  {
    (fst (List.hd parts)) with
    recoveries = sum (fun o -> o.recoveries);
    failures;
    max_records_scanned =
      List.fold_left (fun a (o, _) -> max a o.max_records_scanned) 0 parts;
    torn_blocks = sum (fun o -> o.torn_blocks);
    torn_records = sum (fun o -> o.torn_records);
    spec_checks = sum (fun o -> o.spec_checks);
    atomic_checks = sum (fun o -> o.atomic_checks);
  }

(* One crash point at a simulated instant, on the plant a sweep
   builds, judged there against the tracker's spec of that instant. *)
let run_with_crash (cfg : Experiment.config) ~crash_at =
  let module Shard_group = El_shard.Shard_group in
  if cfg.Experiment.shards <> 1 then
    invalid_arg "Sweep.run_with_crash: one plant only (shards = 1)";
  let sg, trackers = Spec_tracker.prepare cfg in
  Fun.protect
    ~finally:(fun () -> Shard_group.dispose sg)
    (fun () ->
      let engine = Shard_group.engine sg in
      let inst = (Shard_group.instances sg).(0) in
      let manager =
        match inst.Experiment.i_manager with
        | Experiment.El_log m -> m
        | Experiment.Fw_log _ | Experiment.Hybrid_log _ ->
          invalid_arg
            (Printf.sprintf
               "Sweep.run_with_crash: %s has no crash image (EL only)"
               (kind_name cfg.Experiment.kind))
      in
      if Time.(crash_at > cfg.Experiment.runtime) then
        invalid_arg "Sweep.run_with_crash: crash after end of run";
      let judged image =
        let r = Recovery.recover image in
        (r, Spec_tracker.judge trackers.(0) image r)
      in
      let holder = ref None in
      Engine.schedule_at engine crash_at (fun () ->
          (* Capture the in-memory image first, then freeze the store:
             both read the same channel state, so they describe the
             same crash instant, and both are judged now.  The run goes
             on, so keep a copy of the recovered database. *)
          let recovery, verdict = judged (Recovery.crash manager) in
          let recovery =
            {
              recovery with
              recovered = El_disk.Stable_db.copy recovery.Recovery.recovered;
            }
          in
          let store =
            match
              (inst.Experiment.i_store, El_manager.persist_crash_mark manager)
            with
            | Some s, Some upto ->
              let scan =
                El_store.Log_store.scan ~upto (El_store.Log_store.backend s)
              in
              Some
                (judged
                   (Recovery.image_of_scan
                      ~num_objects:cfg.Experiment.num_objects scan))
            | _ -> None
          in
          holder := Some (recovery, verdict, store));
      let result = (Shard_group.finish sg).Shard_group.r_global in
      match !holder with
      | None ->
        (* The engine stopped before the crash instant — only an
           overload can end a run early, so the crash point was never
           reached.  An adversarial scenario on an undersized log is
           the usual way here. *)
        failwith
          (Printf.sprintf
             "Sweep.run_with_crash: the run %s before the crash instant; \
              crash earlier or enlarge the log"
             (if result.Experiment.overloaded then "overloaded and stopped"
              else "ended"))
      | Some (recovery, verdict, store) -> (result, recovery, verdict, store))

let standard_mix () =
  Mix.create
    [
      Tx_type.make ~name:"short" ~probability:0.9 ~duration:(Time.of_ms 400)
        ~num_records:2 ~record_size:100;
      Tx_type.make ~name:"long" ~probability:0.1 ~duration:(Time.of_sec 4)
        ~num_records:4 ~record_size:100;
    ]

(* Size a manager geometry for a preset's space appetite (the paper
   sizes the log to the offered load; see
   [Workload_preset.space_factor]). *)
let scale_kind factor kind =
  if factor <= 1.0 then kind
  else
    let scale n = int_of_float (ceil (float_of_int n *. factor)) in
    match kind with
    | Experiment.Ephemeral p ->
      Experiment.Ephemeral
        {
          p with
          Policy.generation_sizes =
            Array.map scale p.Policy.generation_sizes;
        }
    | Experiment.Firewall n -> Experiment.Firewall (scale n)
    | Experiment.Hybrid sizes -> Experiment.Hybrid (Array.map scale sizes)

let standard_config ~kind ?(runtime = Time.of_sec 20) ?(rate = 40.0)
    ?(seed = 42) ?(abort_fraction = 0.0)
    ?(arrival_process = Generator.Deterministic)
    ?(backend = Experiment.Sim) ?preset () =
  let cfg =
    {
      (Experiment.default_config ~kind ~mix:(standard_mix ())) with
      Experiment.runtime;
      arrival_rate = rate;
      arrival_process;
      num_objects = 10_000;
      flush_drives = 2;
      flush_transfer = Time.of_ms 8;
      seed;
      abort_fraction;
      backend;
    }
  in
  match preset with
  | None -> cfg
  | Some p ->
    Experiment.apply_preset
      { cfg with Experiment.kind = scale_kind p.Preset.space_factor cfg.Experiment.kind }
      p

let standard_kinds () =
  [
    ("el", Experiment.Ephemeral (Policy.default ~generation_sizes:[| 8; 8 |]));
    ("fw", Experiment.Firewall 120);
    ("hybrid", Experiment.Hybrid [| 12; 12 |]);
  ]
