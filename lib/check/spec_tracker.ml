(* Drives the pure durable-log state machine (lib/spec) from a live
   run and checks the implementation against it — the sweep's one
   shadow model of the durable-log contract.

   The tracker interposes on the workload sink, so every
   begin/write/commit/abort becomes a spec step, the manager's kills
   arrive through [kill], and flush completions arrive through
   [observe_flush] (registered on the flush array).  Illegal steps
   are collected as violations rather than raised — a sink callback
   runs deep inside the event loop.  The explicit checks
   ([check_invariant] at every pause, [check_crash] against each
   recovered image, [check_settled], [check_el] and
   [check_settled_stable] at the end) raise [Auditor.Audit_failure]
   like every other auditor. *)

open El_model
module Generator = El_workload.Generator
module El_manager = El_core.El_manager
module Stable_db = El_disk.Stable_db
module Spec = El_spec.Durable_log
module Oid_set = Set.Make (Ids.Oid)

type t = {
  mutable spec : Spec.t;
  mutable touched : Oid_set.t;
      (** objects flushed since the last passing invariant check *)
  mutable committed_count : int;  (** legal [Commit_ack] steps *)
  mutable violations : string list;  (** newest first *)
  mutable checks : int;
}

let create () =
  {
    spec = Spec.init;
    touched = Oid_set.empty;
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

let committed_count t = t.committed_count
let violations t = List.rev t.violations
let checks t = t.checks

let fail fmt = Format.kasprintf (fun s -> raise (Auditor.Audit_failure s)) fmt

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

(* The contract at a crash point, checked against the recovered
   database: every acked version is served at least as new (and any
   excess is explainable by a log-extended transaction whose COMMIT
   may have persisted — e.g. inside a torn prefix), and nothing that
   was never acked nor log-extended survives.  The live spec state is
   used as-is: [may_survive] needs the in-flight transactions the
   crash would have wiped. *)
let check_crash t recovered =
  t.checks <- t.checks + 1;
  check_touched t;
  let acked = ref 0 in
  List.iter
    (fun (oid, v) ->
      incr acked;
      match Stable_db.version recovered oid with
      | None -> fail "spec: acked %a v%d lost by recovery" Ids.Oid.pp oid v
      | Some r when r = v -> ()
      | Some r when r > v ->
        if not (Spec.may_survive t.spec oid r) then
          fail
            "spec: recovery advanced %a to v%d, which no log-extended \
             transaction wrote (acked v%d)"
            Ids.Oid.pp oid r v
      | Some r ->
        fail "spec: acked %a v%d regressed to v%d after recovery" Ids.Oid.pp
          oid v r)
    (Spec.persistent t.spec);
  (* Every acked object is in [recovered] now, so when it holds no more
     objects than that, none is left to explain. *)
  if Stable_db.objects_written recovered > !acked then
    List.iter
      (fun (oid, r) ->
        if
          Spec.acked_version t.spec oid = None
          && not (Spec.may_survive t.spec oid r)
        then
          fail
            "spec: recovery holds %a v%d that was never acked nor log-extended"
            Ids.Oid.pp oid r)
      (Stable_db.snapshot recovered)

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

(* The settled comparisons against the manager.  The spec's acked map
   is the committed database state: per object, the newest version an
   acknowledged transaction wrote (max-merged at each ack, like the
   manager's own committed table), in oid order. *)
let check_el t m =
  let acked = El_manager.acked_commits m in
  if acked <> t.committed_count then
    fail "oracle: manager acknowledged %d commits, model holds %d" acked
      t.committed_count;
  let manager =
    List.sort
      (fun (a, _) (b, _) -> Ids.Oid.compare a b)
      (El_manager.committed_reference m)
  in
  let rec compare_versions = function
    | [], [] -> ()
    | (oid, vm) :: _, [] ->
      fail "oracle: model commits %a v%d, absent from manager reference"
        Ids.Oid.pp oid vm
    | [], (oid, vr) :: _ ->
      fail "oracle: manager reference holds %a v%d the model never committed"
        Ids.Oid.pp oid vr
    | (om, vm) :: restm, (or_, vr) :: restr ->
      let c = Ids.Oid.compare om or_ in
      if c < 0 then
        fail "oracle: model commits %a v%d, absent from manager reference"
          Ids.Oid.pp om vm
      else if c > 0 then
        fail "oracle: manager reference holds %a v%d the model never committed"
          Ids.Oid.pp or_ vr
      else if vm <> vr then
        fail "oracle: %a committed at v%d in the model, v%d in the manager"
          Ids.Oid.pp om vm vr
      else compare_versions (restm, restr)
  in
  compare_versions (Spec.persistent t.spec, manager)

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
