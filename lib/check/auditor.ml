open El_model
module El_manager = El_core.El_manager
module Fw_manager = El_core.Fw_manager
module Hybrid_manager = El_core.Hybrid_manager
module Ledger = El_core.Ledger
module Cell = El_core.Cell
module Policy = El_core.Policy
module Stable_db = El_disk.Stable_db
module Experiment = El_harness.Experiment

exception Audit_failure of string

let fail fmt = Format.kasprintf (fun s -> raise (Audit_failure s)) fmt

(* The managers' own deep checks use assertions; surface them as audit
   failures so a sweep can report them instead of dying. *)
let structural context f =
  try f ()
  with Assert_failure (file, line, _) ->
    fail "%s: structural invariant violated (%s:%d)" context file line

let slot_occupied ~head ~size ~occupied slot =
  occupied = size || (slot - head + size) mod size < occupied

let audit_el m =
  structural "el" (fun () -> El_manager.check_invariants m);
  let placement = (El_manager.policy m).Policy.placement in
  let list_cells = ref 0 in
  Array.iter
    (fun (v : El_manager.gen_audit) ->
      let g = v.El_manager.ga_index in
      let size = v.El_manager.ga_size in
      let head = v.El_manager.ga_head in
      let occupied = v.El_manager.ga_occupied in
      if occupied < 0 || occupied > size then
        fail "el gen %d: occupied %d outside [0, %d]" g occupied size;
      if v.El_manager.ga_tail <> (head + occupied) mod size then
        fail "el gen %d: tail %d <> head %d + occupied %d (mod %d)" g
          v.El_manager.ga_tail head occupied size;
      if v.El_manager.ga_occupancy_gauge <> occupied then
        fail "el gen %d: occupancy gauge %d <> occupied %d" g
          v.El_manager.ga_occupancy_gauge occupied;
      if v.El_manager.ga_staged > 0 && not v.El_manager.ga_last then
        fail "el gen %d: %d staged cells outside the last generation" g
          v.El_manager.ga_staged;
      list_cells := !list_cells + List.length v.El_manager.ga_cells;
      let ring_pos slot = (slot - head + size) mod size in
      let last_pos = ref (-1) in
      List.iter
        (fun (c : Cell.t) ->
          if Cell.is_garbage c.Cell.tracked then
            fail "el gen %d: garbage record still listed" g;
          if c.Cell.gen <> g then
            fail "el gen %d: listed cell claims generation %d" g c.Cell.gen;
          if c.Cell.slot = Cell.unplaced_slot then
            fail "el gen %d: unplaced cell visible at an event boundary" g
          else if c.Cell.slot = Cell.staged_slot then (
            if not v.El_manager.ga_last then
              fail "el gen %d: staged cell outside the last generation" g)
          else begin
            if c.Cell.slot < 0 || c.Cell.slot >= size then
              fail "el gen %d: cell slot %d outside [0, %d)" g c.Cell.slot size;
            if not (slot_occupied ~head ~size ~occupied c.Cell.slot) then
              fail "el gen %d: cell in unoccupied slot %d (head %d, occ %d)" g
                c.Cell.slot head occupied;
            (* FIFO ordering: head-to-tail cell order follows ring slot
               order.  Only provable for non-last generations under the
               base placement — staging (last gen) and lifetime hints
               interleave entry points. *)
            if (not v.El_manager.ga_last) && placement = Policy.Youngest then begin
              let p = ring_pos c.Cell.slot in
              if p < !last_pos then
                fail
                  "el gen %d: FIFO order violated — slot %d (ring %d) listed \
                   after ring position %d"
                  g c.Cell.slot p !last_pos;
              last_pos := p
            end
          end)
        v.El_manager.ga_cells)
    (El_manager.audit_view m);
  let ledger_cells = Ledger.live_cells (El_manager.ledger m) in
  if ledger_cells <> !list_cells then
    fail "el: ledger reaches %d live cells but generation lists hold %d"
      ledger_cells !list_cells;
  (* The stable version may lag the durably committed state but never
     lead it, and never hold an object that was never committed. *)
  let reference = Ids.Oid.Table.create 256 in
  List.iter
    (fun (oid, version) -> Ids.Oid.Table.replace reference oid version)
    (El_manager.committed_reference m);
  List.iter
    (fun (oid, stable_version) ->
      match Ids.Oid.Table.find_opt reference oid with
      | None ->
        fail "el: stable holds %a v%d but no commit of it is durable"
          Ids.Oid.pp oid stable_version
      | Some committed ->
        if stable_version > committed then
          fail "el: stable holds %a v%d ahead of durably committed v%d"
            Ids.Oid.pp oid stable_version committed)
    (Stable_db.snapshot (El_manager.stable m))

let audit_fw m =
  structural "fw" (fun () -> Fw_manager.check_invariants m);
  let v = Fw_manager.audit_view m in
  if v.Fw_manager.ra_occupied < 0 || v.Fw_manager.ra_occupied > v.Fw_manager.ra_size
  then
    fail "fw: occupied %d outside [0, %d]" v.Fw_manager.ra_occupied
      v.Fw_manager.ra_size;
  if
    v.Fw_manager.ra_tail
    <> (v.Fw_manager.ra_head + v.Fw_manager.ra_occupied) mod v.Fw_manager.ra_size
  then
    fail "fw: tail %d <> head %d + occupied %d (mod %d)" v.Fw_manager.ra_tail
      v.Fw_manager.ra_head v.Fw_manager.ra_occupied v.Fw_manager.ra_size;
  if v.Fw_manager.ra_live_records > 0 && v.Fw_manager.ra_occupied = 0 then
    fail "fw: %d live records in an empty ring" v.Fw_manager.ra_live_records

let audit_hybrid m =
  structural "hybrid" (fun () -> Hybrid_manager.check_invariants m);
  Array.iter
    (fun (v : Hybrid_manager.queue_audit) ->
      let q = v.Hybrid_manager.qa_index in
      if v.Hybrid_manager.qa_occupied < 0
         || v.Hybrid_manager.qa_occupied > v.Hybrid_manager.qa_size
      then
        fail "hybrid queue %d: occupied %d outside [0, %d]" q
          v.Hybrid_manager.qa_occupied v.Hybrid_manager.qa_size;
      if
        v.Hybrid_manager.qa_tail
        <> (v.Hybrid_manager.qa_head + v.Hybrid_manager.qa_occupied)
           mod v.Hybrid_manager.qa_size
      then
        fail "hybrid queue %d: tail %d <> head %d + occupied %d (mod %d)" q
          v.Hybrid_manager.qa_tail v.Hybrid_manager.qa_head
          v.Hybrid_manager.qa_occupied v.Hybrid_manager.qa_size;
      if v.Hybrid_manager.qa_anchored > 0 && v.Hybrid_manager.qa_occupied = 0
      then
        fail "hybrid queue %d: %d anchors in an empty queue" q
          v.Hybrid_manager.qa_anchored)
    (Hybrid_manager.audit_view m)

let audit_manager = function
  | Experiment.El_log m -> audit_el m
  | Experiment.Fw_log m -> audit_fw m
  | Experiment.Hybrid_log m -> audit_hybrid m
