(* Drives the pure durable-log state machine (lib/spec) from a live
   run and checks the implementation against it — the one witness of
   what a crash must keep.

   The tracker interposes on the workload sink, so every
   begin/write/commit/abort becomes a spec step, the manager's kills
   arrive through [kill], flush completions arrive through
   [observe_flush] (registered on the flush array), and installs into
   the stable database through [watch_stable], which judges each as it
   lands.  Illegal steps and bad installs are collected rather than
   raised — a sink callback runs deep inside the event loop.  The
   explicit checks ([check_installs] and [check_invariant] at every
   pause, [check_settled] and [check_settled_stable] at the end) raise
   [Auditor.Audit_failure] like every other auditor; the crash judge
   ([judge]) returns a verdict on each recovered image. *)

open El_model
module Generator = El_workload.Generator
module Experiment = El_harness.Experiment
module Shard_group = El_shard.Shard_group
module Stable_db = El_disk.Stable_db
module Recovery = El_recovery.Recovery
module Spec = El_spec.Durable_log
module Oid_set = Set.Make (Ids.Oid)
module Oid_map = Map.Make (Ids.Oid)

type t = {
  mutable spec : Spec.t;
  mutable touched : Oid_set.t;
      (** objects flushed since the last passing invariant check *)
  mutable stable : Stable_db.t option;  (** the watched stable database *)
  mutable installed : Oid_set.t;
      (** objects installed into it since the last judgement that found
          no floor lag *)
  mutable overrun : string option;
      (** the first install that ran it ahead of the acked state *)
  mutable committed_count : int;  (** legal [Commit_ack] steps *)
  mutable violations : string list;  (** newest first *)
  mutable checks : int;
}

let of_spec spec =
  {
    spec;
    touched = Oid_set.empty;
    stable = None;
    installed = Oid_set.empty;
    overrun = None;
    committed_count = 0;
    violations = [];
    checks = 0;
  }

let create () = of_spec Spec.init

let illegal t msg =
  t.violations <- Printf.sprintf "spec: illegal step — %s" msg :: t.violations

(* One transition of the model.  A rejected step means the
   implementation performed an action the durable-log contract
   forbids (or the trace plumbing lost an event); the model state is
   left unchanged so later steps keep producing useful messages
   instead of cascading. *)
let apply t step =
  match Spec.step t.spec step with
  | Ok spec -> t.spec <- spec
  | Error msg -> illegal t msg

let wrap t (sink : Generator.sink) =
  {
    Generator.begin_tx =
      (fun ~tid ~expected_duration ->
        apply t (Spec.Begin tid);
        sink.Generator.begin_tx ~tid ~expected_duration);
    write_data =
      (fun ~tid ~oid ~version ~size ->
        apply t (Spec.Append (tid, oid, version));
        sink.Generator.write_data ~tid ~oid ~version ~size);
    request_commit =
      (fun ~tid ~on_ack ->
        (* The commit request puts the COMMIT record into the log
           channel — the spec's log extension.  The ack callback is
           the group commit firing. *)
        apply t (Spec.Log_extension tid);
        let on_ack time =
          (match Spec.step t.spec (Spec.Commit_ack tid) with
          | Ok spec ->
            t.spec <- spec;
            t.committed_count <- t.committed_count + 1
          | Error msg -> illegal t msg);
          on_ack time
        in
        sink.Generator.request_commit ~tid ~on_ack);
    request_abort =
      (fun ~tid ->
        apply t (Spec.Abort tid);
        sink.Generator.request_abort ~tid);
  }

let kill t tid = apply t (Spec.Kill tid)

(* A completed database-drive transfer both lands the version on disk
   and makes the stable database serve it ([Stable_db.apply] runs in
   the same completion), so the flush-complete and superblock-advance
   steps coincide in this implementation. *)
let observe_flush t oid ~version =
  apply t (Spec.Flush_complete (oid, version));
  apply t (Spec.Superblock_advance (oid, version));
  t.touched <- Oid_set.add oid t.touched

(* An install may catch the stable database up with an acked version,
   never run it ahead.  It lands inside its flush completion, before
   [observe_flush] steps the spec, so an unsettled object may still rise
   to its acked version, and a settled or never-acked one, served at its
   acked version or not at all, may not rise. *)
let judge_install t oid ~version ~previous =
  let committed =
    if Oid_set.mem oid (Spec.unsettled t.spec) then
      Spec.acked_version t.spec oid
    else previous
  in
  match committed with
  | Some c when version <= c -> ()
  | Some c ->
    t.overrun <-
      Some
        (Format.asprintf "stable holds %a v%d ahead of durably committed v%d"
           Ids.Oid.pp oid version c)
  | None ->
    t.overrun <-
      Some
        (Format.asprintf "stable holds %a v%d but no commit of it is durable"
           Ids.Oid.pp oid version)

let watch_stable t stable =
  if Option.is_some t.stable then
    invalid_arg "Spec_tracker.watch_stable: twice";
  t.stable <- Some stable;
  Stable_db.on_install stable (fun oid ~version ~previous ->
      t.installed <- Oid_set.add oid t.installed;
      if t.overrun = None then judge_install t oid ~version ~previous)

let prepare ?on_cross (cfg : Experiment.config) =
  let trackers = Array.init cfg.Experiment.shards (fun _ -> create ()) in
  let sg =
    Shard_group.prepare
      ~wrap_shard_sink:(fun i -> wrap trackers.(i))
      ~on_shard_kill:(fun i -> kill trackers.(i))
      ?on_cross cfg
  in
  Array.iteri
    (fun i inst ->
      El_disk.Flush_array.add_flush_observer inst.Experiment.i_flush
        (observe_flush trackers.(i));
      match inst.Experiment.i_manager with
      | Experiment.El_log _ ->
        watch_stable trackers.(i) inst.Experiment.i_stable
      | Experiment.Fw_log _ | Experiment.Hybrid_log _ -> ())
    (Shard_group.instances sg);
  (sg, trackers)

let unsettled t =
  Oid_set.fold
    (fun oid acc ->
      match Spec.acked_version t.spec oid with
      | Some v -> (oid, v) :: acc
      | None -> acc)
    (Spec.unsettled t.spec) []

let committed_count t = t.committed_count
let violations t = List.rev t.violations
let checks t = t.checks

let fail fmt = Format.kasprintf (fun s -> raise (Auditor.Audit_failure s)) fmt

(* Prefixed, as the auditor prefixes what it finds in a manager, with
   the kind of the plant whose database it watches. *)
let check_installs t = Option.iter (fail "el: %s") t.overrun

(* The invariant over the objects flushed since it last passed is the
   whole invariant: a record fails only through its flush or floor, and
   an ack only raises the version those are held under.  A failing
   check keeps the set, so every later check reports the same first
   violation, as a walk over every object would. *)
let check_touched t =
  match Spec.check_objects t.spec (Oid_set.elements t.touched) with
  | Ok () -> t.touched <- Oid_set.empty
  | Error msg -> fail "spec: %s" msg

let check_invariant t =
  t.checks <- t.checks + 1;
  check_touched t

(* ---- the crash judge ---- *)

type verdict = {
  lag : (Ids.Oid.t * int option * int option) option;
  missing : (Ids.Oid.t * int) list;
  spurious : (Ids.Oid.t * int) list;
}

let ok v = v.lag = None && v.missing = [] && v.spurious = []

let pp_version ppf = function
  | Some v -> Format.fprintf ppf "v%d" v
  | None -> Format.pp_print_string ppf "nothing"

let pp_verdict ppf v =
  if ok v then Format.pp_print_string ppf "recovery audit: OK"
  else begin
    Format.pp_print_string ppf "recovery audit: FAILED (";
    Option.iter
      (fun (oid, served, floor) ->
        Format.fprintf ppf "stable serves %a %a but the superblock floor is %a"
          Ids.Oid.pp oid pp_version served pp_version floor)
      v.lag;
    if v.missing <> [] || v.spurious <> [] then begin
      if v.lag <> None then Format.pp_print_string ppf "; ";
      let first =
        List.hd
          (List.sort Ids.Oid.compare (List.map fst (v.missing @ v.spurious)))
      in
      Format.fprintf ppf
        "%d committed updates missing, %d spurious; %a committed %a, recovered \
         %a"
        (List.length v.missing) (List.length v.spurious) Ids.Oid.pp first
        pp_version
        (List.assoc_opt first v.missing)
        pp_version
        (List.assoc_opt first v.spurious)
    end;
    Format.pp_print_char ppf ')'
  end

let lag_at spec stable oid =
  let served = Stable_db.version stable oid in
  let floor = Spec.floor_version spec oid in
  if served = floor then None else Some (oid, served, floor)

(* The lowest object of [oids] whose stable version is not its floor.
   Checked over the objects installed into the watched database since
   the last judgement that found no lag, the floors hold for every
   object: the stable database changes only by installs and, in this
   implementation, a floor only at the install of the same flush
   completion. *)
let first_lag spec stable oids =
  Oid_set.fold
    (fun oid found ->
      match found with Some _ -> found | None -> lag_at spec stable oid)
    oids None

(* The same over every object the spec holds a promise for or the
   stable database names, for a database that is not the watched one:
   nothing was proved about it before. *)
let every_lag spec stable =
  let named = ref Oid_set.empty in
  List.iter
    (fun (oid, _) -> named := Oid_set.add oid !named)
    (Spec.persistent spec);
  Stable_db.iter stable (fun oid _ -> named := Oid_set.add oid !named);
  first_lag spec stable !named

let rec reads db watched =
  db == watched
  || match Stable_db.base db with Some b -> reads b watched | None -> false

(* A COMMIT record that persisted inside a torn prefix commits its
   transaction although the block never completed and the ack never
   fired, if the spec saw the transaction reach its log extension.  (The
   channel is FIFO, so every data record such a transaction logged is in
   an earlier, completed, block or earlier in the same prefix.)  Per
   object, the newest version such a transaction wrote. *)
let torn_commits spec (image : Recovery.image) =
  let tids =
    List.fold_left
      (fun acc (b : Recovery.block) ->
        if b.Recovery.torn = 0 then acc
        else
          List.fold_left
            (fun acc (r : Log_record.t) ->
              match r.Log_record.kind with
              | Log_record.Commit
                when Spec.log_extended spec r.Log_record.tid ->
                r.Log_record.tid :: acc
              | Log_record.Commit | Log_record.Begin | Log_record.Abort
              | Log_record.Data _ ->
                acc)
            acc b.Recovery.records)
      [] image.Recovery.blocks
  in
  if tids = [] then Oid_map.empty
  else
    List.fold_left
      (fun raised (b : Recovery.block) ->
        List.fold_left
          (fun raised (r : Log_record.t) ->
            match r.Log_record.kind with
            | Log_record.Data { oid; version }
              when List.exists (Ids.Tid.equal r.Log_record.tid) tids -> (
              match Oid_map.find_opt oid raised with
              | Some v when v >= version -> raised
              | Some _ | None -> Oid_map.add oid version raised)
            | Log_record.Data _ | Log_record.Begin | Log_record.Commit
            | Log_record.Abort ->
              raised)
          raised b.Recovery.records)
      Oid_map.empty image.Recovery.blocks

(* What the crash must keep, per object: the spec's acked version, or
   the stable version of an object never acked, raised by the
   torn-prefix commits.  The recovered database is the stable one
   overlaid with the redo, and the stable database serves the acked
   version of every settled object (the floor half proves it as each is
   installed), so wherever neither the unsettled set, the torn commits
   nor the redo names an object both sides agree: only the named
   objects are compared. *)
let judge t (image : Recovery.image) (result : Recovery.result) =
  let stable = image.Recovery.stable in
  let recovered = result.Recovery.recovered in
  (match Stable_db.base recovered with
  | Some b when b == stable -> ()
  | Some _ | None ->
    invalid_arg
      "Spec_tracker.judge: the result was not recovered from this image");
  let spec = t.spec in
  let watched =
    match t.stable with Some s -> reads stable s | None -> false
  in
  let lag =
    if watched then first_lag spec stable t.installed else every_lag spec stable
  in
  if watched && lag = None then t.installed <- Oid_set.empty;
  let unsettled = Spec.unsettled spec in
  let raised = torn_commits spec image in
  let expected oid =
    let kept =
      match Spec.acked_version spec oid with
      | Some _ as acked -> acked
      | None -> Stable_db.version stable oid
    in
    match Oid_map.find_opt oid raised with
    | Some _ as r when r > kept -> r
    | Some _ | None -> kept
  in
  let differing = ref [] in
  let compare_at oid =
    if expected oid <> Stable_db.version recovered oid then
      differing := oid :: !differing
  in
  Oid_set.iter compare_at unsettled;
  Oid_map.iter
    (fun oid _ -> if not (Oid_set.mem oid unsettled) then compare_at oid)
    raised;
  Stable_db.iter_overlay recovered (fun oid _ ->
      if not (Oid_set.mem oid unsettled || Oid_map.mem oid raised) then
        compare_at oid);
  let differing = List.sort Ids.Oid.compare !differing in
  let side read =
    List.filter_map
      (fun oid -> Option.map (fun v -> (oid, v)) (read oid))
      differing
  in
  {
    lag;
    missing = side expected;
    spurious = side (Stable_db.version recovered);
  }

(* After the run settles (all buffers written, flushes drained) every
   acked version must have completed its flush — "ack implies
   recoverable" with nothing left in flight. *)
let check_settled t =
  t.checks <- t.checks + 1;
  List.iter
    (fun (oid, v) ->
      match Spec.flushed_version t.spec oid with
      | Some f when f = v -> ()
      | Some f ->
        fail "spec: settled run flushed %a at v%d, acked v%d" Ids.Oid.pp oid f
          v
      | None ->
        fail "spec: settled run never flushed acked %a v%d" Ids.Oid.pp oid v)
    (Spec.persistent t.spec)

(* The settled comparison against the plant: the spec's acked map is
   the committed database state (per object, the newest version an
   acknowledged transaction wrote, max-merged at each ack), and once
   every flush has landed the stable database holds exactly that. *)
let check_settled_stable t stable =
  List.iter
    (fun (oid, version) ->
      match Stable_db.version stable oid with
      | None ->
        fail "oracle: committed %a v%d never reached the stable version"
          Ids.Oid.pp oid version
      | Some v when v <> version ->
        fail "oracle: stable holds %a v%d, model committed v%d" Ids.Oid.pp oid
          v version
      | Some _ -> ())
    (Spec.persistent t.spec);
  List.iter
    (fun (oid, v) ->
      if Spec.acked_version t.spec oid = None then
        fail "oracle: stable holds %a v%d but no transaction committed it"
          Ids.Oid.pp oid v)
    (Stable_db.snapshot stable)
