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
   pause, [check_crash] against each recovered image, [check_settled]
   and [check_settled_stable] at the end) raise [Auditor.Audit_failure]
   like every other auditor. *)

open El_model
module Generator = El_workload.Generator
module Experiment = El_harness.Experiment
module Shard_group = El_shard.Shard_group
module Stable_db = El_disk.Stable_db
module Spec = El_spec.Durable_log
module Oid_set = Set.Make (Ids.Oid)

type t = {
  mutable spec : Spec.t;
  mutable touched : Oid_set.t;
      (** objects flushed since the last passing invariant check *)
  mutable stable : Stable_db.t option;  (** the watched stable database *)
  mutable installed : Oid_set.t;
      (** objects installed into it since the last passing crash check *)
  mutable overrun : string option;
      (** the first install that ran it ahead of the acked state *)
  mutable committed_count : int;  (** legal [Commit_ack] steps *)
  mutable violations : string list;  (** newest first *)
  mutable checks : int;
}

let create () =
  {
    spec = Spec.init;
    touched = Oid_set.empty;
    stable = None;
    installed = Oid_set.empty;
    overrun = None;
    committed_count = 0;
    violations = [];
    checks = 0;
  }

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

let pp_version ppf = function
  | Some v -> Format.fprintf ppf "v%d" v
  | None -> Format.pp_print_string ppf "nothing"

(* The stable database serves the spec's superblock floor: checked for
   each object installed since this last passed, it holds for every
   object, because the stable database changes only by installs and,
   in this implementation, the floor only at the install of the same
   flush completion.  A failing check keeps the set. *)
let check_floors t stable =
  Oid_set.iter
    (fun oid ->
      let served = Stable_db.version stable oid in
      let floor = Spec.floor_version t.spec oid in
      if served <> floor then
        fail "spec: stable serves %a %a but the superblock floor is %a"
          Ids.Oid.pp oid pp_version served pp_version floor)
    t.installed;
  t.installed <- Oid_set.empty

(* The overlays a recovered database reads through down to its root
   (the recovery's redo, and any overlay between it and the root),
   which must be the watched stable database. *)
let overlays t recovered =
  let rec walk db acc =
    match Stable_db.base db with
    | Some b -> walk b (db :: acc)
    | None -> (
      match t.stable with
      | Some s when s == db -> acc
      | Some _ | None ->
        invalid_arg
          "Spec_tracker.check_crash: not an overlay of the watched stable \
           database")
  in
  walk recovered []

(* An acked object's verdict: served at least as new, and any newer
   version one a log-extended transaction wrote. *)
let acked_verdict t recovered oid =
  match Spec.acked_version t.spec oid with
  | None -> None
  | Some v -> (
    match Stable_db.version recovered oid with
    | None ->
      Some (Format.asprintf "acked %a v%d lost by recovery" Ids.Oid.pp oid v)
    | Some r when r = v -> None
    | Some r when r > v ->
      if Spec.may_survive t.spec oid r then None
      else
        Some
          (Format.asprintf
             "recovery advanced %a to v%d, which no log-extended transaction \
              wrote (acked v%d)"
             Ids.Oid.pp oid r v)
    | Some r ->
      Some
        (Format.asprintf "acked %a v%d regressed to v%d after recovery"
           Ids.Oid.pp oid v r))

(* A never-acked object may survive only as a log-extended write. *)
let unacked_verdict t recovered oid =
  match Stable_db.version recovered oid with
  | Some r
    when Spec.acked_version t.spec oid = None
         && not (Spec.may_survive t.spec oid r) ->
    Some
      (Format.asprintf
         "recovery holds %a v%d that was never acked nor log-extended"
         Ids.Oid.pp oid r)
  | Some _ | None -> None

(* Fails with the verdict of the lowest candidate that has one, as an
   ascending pass would; [candidates] may repeat an oid. *)
let fail_lowest verdict candidates =
  let low = ref None in
  candidates (fun oid ->
      match !low with
      | Some (l, _) when Ids.Oid.compare l oid <= 0 -> ()
      | Some _ | None -> (
        match verdict oid with Some m -> low := Some (oid, m) | None -> ()));
  match !low with Some (_, m) -> fail "spec: %s" m | None -> ()

(* The contract at a crash point, checked against the recovered
   database: every acked version is served at least as new (and any
   excess is explainable by a log-extended transaction whose COMMIT
   may have persisted — e.g. inside a torn prefix), and nothing that
   was never acked nor log-extended survives.  The live spec state is
   used as-is: [may_survive] needs the in-flight transactions the
   crash would have wiped.

   The recovered database is the stable one overlaid with the redo,
   and the stable one serves every floor ([check_floors]), so an
   object the overlays do not name reads its floor: the acked version
   for a settled object, nothing for one never acked.  Only the
   unsettled objects and the overlays' need judging; reporting the
   lowest failing oid reports what a pass over every acked object, in
   oid order, would. *)
let check_crash t recovered =
  t.checks <- t.checks + 1;
  check_touched t;
  let layers = overlays t recovered in
  Option.iter (check_floors t) t.stable;
  let redo f =
    List.iter (fun db -> Stable_db.iter_overlay db (fun oid _ -> f oid)) layers
  in
  let unsettled = Spec.unsettled t.spec in
  fail_lowest (acked_verdict t recovered) (fun f ->
      Oid_set.iter f unsettled;
      redo (fun oid -> if not (Oid_set.mem oid unsettled) then f oid));
  fail_lowest (unacked_verdict t recovered) redo

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
