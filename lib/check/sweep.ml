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
   sweep.  Failures carry the global pause index they were detected
   at ([max_int] for post-settle checks) so slices merge back into
   the serial reporting order. *)
type slice_outcome = {
  s_events : int;
  s_pauses : int;  (** global pause count — identical across slices *)
  s_recoveries : int;  (** crash/recover cycles performed by this slice *)
  s_failures : (int * int * string) list;
      (** (pause tag, events dispatched, message), oldest first *)
  s_overloaded : bool;
  s_faulted : bool;
  s_committed : int;
  s_killed : int;
  s_contention_aborts : int;  (** generator totals — identical across slices *)
  s_contention_retries : int;
  s_max_scanned : int;
  s_torn_blocks : int;  (** summed over this slice's recoveries *)
  s_torn_records : int;
  s_io_retries : int;  (** injector totals — identical across slices *)
  s_io_remaps : int;
  s_sheds : int;
  s_spec_checks : int;
  s_cross_committed : int;  (** 2PC commits acknowledged — 0 when solo *)
  s_blocked_cross : int;
  s_atomic_checks : int;  (** cross-shard transactions atomicity-checked *)
}

(* Every sweep runs over an [El_shard.Shard_group]; a solo config is
   the 1-shard group.  Each shard gets its own Reference model and
   spec tracker.  With several shards the {e composite oracle} adds the
   global atomic-commit invariant over the recovered per-shard
   committed sets: no crash point may recover a cross-shard
   transaction as committed on one shard (decision durable) while a
   participant branch is missing — and no acknowledged transaction may
   lack its durable decision.  At one shard none of that runs, and
   failure messages name no shard. *)
let run_slice ~slice ~slices ~stride ~max_points ~recover ~oracle ~spec
    (cfg : Experiment.config) =
  let module Shard_group = El_shard.Shard_group in
  let module Two_pc = El_shard.Two_pc in
  let module IntSet = Set.Make (Int) in
  let n = cfg.Experiment.shards in
  let composite = n > 1 in
  let on_shard i msg =
    if composite then Printf.sprintf "shard %d: %s" i msg else msg
  in
  let refs = Array.init n (fun _ -> Reference.create ()) in
  let trackers =
    if spec then Some (Array.init n (fun _ -> Spec_tracker.create ()))
    else None
  in
  let wrap_shard_sink i sink =
    let sink = if oracle then Reference.wrap refs.(i) sink else sink in
    match trackers with
    | Some ts -> Spec_tracker.wrap ts.(i) sink
    | None -> sink
  in
  let on_shard_kill i tid =
    if oracle then Reference.kill refs.(i) tid;
    match trackers with Some ts -> Spec_tracker.kill ts.(i) tid | None -> ()
  in
  let sg =
    Shard_group.prepare ~wrap_shard_sink ~on_shard_kill ~retain_cross:true cfg
  in
  let instances = Shard_group.instances sg in
  (match trackers with
  | Some ts ->
    Array.iteri
      (fun i inst ->
        El_disk.Flush_array.add_flush_observer inst.Experiment.i_flush
          (Spec_tracker.observe_flush ts.(i)))
      instances
  | None -> ());
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
  let guarded ~tag f =
    try f () with Auditor.Audit_failure m -> record_failure ~tag m
  in
  let is_el =
    match cfg.Experiment.kind with Experiment.Ephemeral _ -> true | _ -> false
  in
  (* The per-shard committed sets jointly satisfy atomic commit for
     every transaction that ever entered 2PC. *)
  let atomic_commit_check ~tag (results : Recovery.result array) =
    let sets =
      Array.map
        (fun (r : Recovery.result) ->
          List.fold_left
            (fun s tid -> IntSet.add (Ids.Tid.to_int tid) s)
            IntSet.empty r.Recovery.committed_tids)
        results
    in
    (* Durable evidence comes in two forms.  The committed-tid sets
       only cover transactions whose records are still in the log —
       ephemeral logging discards them once flushed — so the lasting
       evidence is the recovered database's version at the
       transaction's control oids: versions there are gtids, slots are
       reused only after durable settlement, and versions are monotone
       per oid, so [recovered version >= gtid] proves the record was
       durable no matter how long ago the log let go of it. *)
    let ctl_durable shard oid gtid =
      match
        El_disk.Stable_db.version results.(shard).Recovery.recovered oid
      with
      | Some v -> v >= Shard_group.ctl_version ~gtid
      | None -> false
    in
    List.iter
      (fun (v : Shard_group.gtx_view) ->
        incr atomic_checks;
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
        if not (Two_pc.atomic_ok ~decision_durable:decided ~branches_durable)
        then
          record_failure ~tag
            (Printf.sprintf
               "atomic commit violated: gtid %d decided on coordinator %d \
                but branches durable only on [%s] of [%s]"
               v.Shard_group.v_gtid v.Shard_group.v_coordinator
               (String.concat ","
                  (List.filteri
                     (fun i _ -> List.nth branches_durable i)
                     v.Shard_group.v_participants
                  |> List.map string_of_int))
               (String.concat ","
                  (List.map string_of_int v.Shard_group.v_participants)));
        if v.Shard_group.v_phase = Two_pc.Acked && not decided then
          record_failure ~tag
            (Printf.sprintf
               "durability violated: gtid %d was acknowledged but its \
                decision record did not survive the crash"
               v.Shard_group.v_gtid))
      (Shard_group.cross_views sg)
  in
  (* Crash every shard at the same engine instant and recover each. *)
  let crash_point ~tag ~audit_shards =
    incr recoveries;
    let images = Shard_group.crash_images sg in
    let results = Array.map (fun img -> Recovery.recover img) images in
    Array.iteri
      (fun i (r : Recovery.result) ->
        if r.Recovery.records_scanned > !max_scanned then
          max_scanned := r.Recovery.records_scanned;
        torn_blocks := !torn_blocks + r.Recovery.torn_blocks;
        torn_records := !torn_records + r.Recovery.torn_records;
        if audit_shards then begin
          let a = Recovery.audit images.(i) r in
          if not a.Recovery.ok then
            record_failure ~tag
              (Format.asprintf "%scrash recovery diverged: %a"
                 (if composite then Printf.sprintf "shard %d " i else "")
                 Recovery.pp_audit a);
          match trackers with
          | Some ts ->
            guarded ~tag (fun () ->
                Spec_tracker.check_crash ts.(i) r.Recovery.recovered)
          | None -> ()
        end)
      results;
    if composite then atomic_commit_check ~tag results
  in
  let audit_point () =
    let tag = !pauses in
    incr pauses;
    if tag mod slices = slice then begin
      Array.iteri
        (fun i inst ->
          guarded ~tag (fun () ->
              Auditor.audit_manager inst.Experiment.i_manager);
          match trackers with
          | Some ts -> guarded ~tag (fun () -> Spec_tracker.check_invariant ts.(i))
          | None -> ())
        instances;
      if recover && is_el then crash_point ~tag ~audit_shards:true
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
    let guarded f = guarded ~tag:final f in
    let record_failure msg = record_failure ~tag:final msg in
    Array.iter
      (fun inst ->
        guarded (fun () -> Auditor.audit_manager inst.Experiment.i_manager))
      instances;
    if oracle then begin
      Array.iteri
        (fun i r ->
          List.iter
            (fun m -> record_failure (on_shard i m))
            (Reference.violations r))
        refs;
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
        (fun i r ->
          let expect = commits.(i) + acks.(i) in
          let got = Reference.committed_count r in
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
        refs;
      Array.iteri
        (fun i inst ->
          match inst.Experiment.i_manager with
          | Experiment.El_log m ->
            guarded (fun () -> Reference.check_el refs.(i) m);
            guarded (fun () ->
                Reference.check_settled_stable refs.(i) (El_manager.stable m))
          | Experiment.Hybrid_log _ ->
            guarded (fun () ->
                Reference.check_settled_stable refs.(i)
                  inst.Experiment.i_stable)
          | Experiment.Fw_log _ -> ())
        instances
    end;
    (match trackers with
    | Some ts ->
      Array.iteri
        (fun i t ->
          List.iter
            (fun m -> record_failure (on_shard i m))
            (Spec_tracker.violations t);
          (* FW is exempt from the settled flush check for the same
             reason Reference skips its stable check: the baseline
             retires records by log-space reuse, not by a full drain to
             the database. *)
          match instances.(i).Experiment.i_manager with
          | Experiment.El_log _ | Experiment.Hybrid_log _ ->
            guarded (fun () -> Spec_tracker.check_settled t)
          | Experiment.Fw_log _ -> ())
        ts
    | None -> ());
    (* One last composite check over the settled state: the in-doubt
       resolution of every cross-shard transaction must still satisfy
       atomic commit after all buffers drained.  Solo there is none,
       and the extra recovery would only be counted. *)
    if recover && is_el && composite then
      crash_point ~tag:final ~audit_shards:false
  end;
  let injected count =
    match Shard_group.injector sg with Some i -> count i | None -> 0
  in
  let outcome =
    {
      s_events = Engine.events_dispatched engine;
      s_pauses = !pauses;
      s_recoveries = !recoveries;
      s_failures = List.rev !failures;
      s_overloaded = overloaded;
      s_faulted = status = `Faulted;
      s_committed = Generator.committed generator;
      s_killed = Generator.killed generator;
      s_contention_aborts = Generator.contention_aborts generator;
      s_contention_retries = Generator.retries generator;
      s_max_scanned = !max_scanned;
      s_torn_blocks = !torn_blocks;
      s_torn_records = !torn_records;
      s_io_retries = injected El_fault.Injector.retries;
      s_io_remaps = injected El_fault.Injector.remaps;
      s_sheds = injected El_fault.Injector.sheds;
      s_spec_checks =
        (match trackers with
        | Some ts ->
          Array.fold_left (fun a t -> a + Spec_tracker.checks t) 0 ts
        | None -> 0);
      s_cross_committed = Shard_group.cross_committed sg;
      s_blocked_cross = Shard_group.blocked sg;
      s_atomic_checks = !atomic_checks;
    }
  in
  Shard_group.dispose sg;
  outcome

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
  let p0 = List.hd parts in
  (* Each pause is owned by exactly one slice and the settled-state
     tag only appears in slice 0, so a stable sort on the tag alone
     reproduces the serial reporting order exactly. *)
  let failures =
    List.concat_map (fun p -> p.s_failures) parts
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare (a : int) b)
    |> List.map (fun (_, at, msg) -> (at, msg))
  in
  {
    kind = kind_name cfg.Experiment.kind;
    seed = cfg.Experiment.seed;
    shards = cfg.Experiment.shards;
    events = p0.s_events;
    points = p0.s_pauses;
    recoveries = List.fold_left (fun a p -> a + p.s_recoveries) 0 parts;
    failures;
    overloaded = p0.s_overloaded;
    faulted = p0.s_faulted;
    committed = p0.s_committed;
    killed = p0.s_killed;
    contention_aborts = p0.s_contention_aborts;
    contention_retries = p0.s_contention_retries;
    max_records_scanned =
      List.fold_left (fun a p -> max a p.s_max_scanned) 0 parts;
    (* pauses partition across slices, so summing reproduces the
       serial totals *)
    torn_blocks = List.fold_left (fun a p -> a + p.s_torn_blocks) 0 parts;
    torn_records = List.fold_left (fun a p -> a + p.s_torn_records) 0 parts;
    (* injector totals, identical in every slice's replay *)
    io_retries = p0.s_io_retries;
    io_remaps = p0.s_io_remaps;
    sheds = p0.s_sheds;
    spec_checks = List.fold_left (fun a p -> a + p.s_spec_checks) 0 parts;
    (* router totals, identical in every slice's replay *)
    cross_committed = p0.s_cross_committed;
    blocked_cross = p0.s_blocked_cross;
    (* atomic checks partition with the pauses, like recoveries *)
    atomic_checks = List.fold_left (fun a p -> a + p.s_atomic_checks) 0 parts;
  }

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
