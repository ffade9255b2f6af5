open El_model

type block = { records : Log_record.t list; torn : int }

type image = { blocks : block list; stable : El_disk.Stable_db.t }

let crash manager =
  let module M = El_core.El_manager in
  {
    blocks =
      M.fold_durable manager
        (fun acc records torn -> { records; torn } :: acc)
        [];
    stable = El_disk.Stable_db.overlay (M.stable manager);
  }

type result = {
  recovered : El_disk.Stable_db.t;
  committed_tids : Ids.Tid.t list;
  records_scanned : int;
  redo_applied : int;
  redo_skipped : int;
  torn_blocks : int;
  torn_records : int;
}

let recover image =
  let torn_blocks = ref 0 in
  let torn_records = ref 0 in
  List.iter
    (fun b ->
      if b.torn > 0 then begin
        incr torn_blocks;
        torn_records := !torn_records + b.torn
      end)
    image.blocks;
  let iter_records f = List.iter (fun b -> List.iter f b.records) image.blocks in
  (* Pass 1 within the single scan: the committed transaction set is
     known once every record has been seen, so we fold the scan into a
     table first and then redo — still one read of the log.  It starts
     at about a bucket per commit the image's blocks hold, not at a
     fixed 1,024 that went to the major heap at every crash point. *)
  let committed = Ids.Tid.Table.create (4 * List.length image.blocks) in
  let scanned = ref 0 in
  iter_records (fun (r : Log_record.t) ->
      incr scanned;
      match r.kind with
      | Log_record.Commit -> Ids.Tid.Table.replace committed r.tid ()
      | Log_record.Begin | Log_record.Abort | Log_record.Data _ -> ());
  let recovered = El_disk.Stable_db.overlay image.stable in
  let applied = ref 0 in
  let skipped = ref 0 in
  iter_records (fun (r : Log_record.t) ->
      match r.kind with
      | Log_record.Data { oid; version } when Ids.Tid.Table.mem committed r.tid
        ->
        let newer =
          match El_disk.Stable_db.version recovered oid with
          | Some v -> version > v
          | None -> true
        in
        if newer then begin
          El_disk.Stable_db.apply recovered oid ~version;
          incr applied
        end
        else incr skipped
      | Log_record.Data _ | Log_record.Begin | Log_record.Commit
      | Log_record.Abort ->
        incr skipped);
  {
    recovered;
    committed_tids =
      Ids.Tid.Table.fold (fun tid () acc -> tid :: acc) committed [];
    records_scanned = !scanned;
    redo_applied = !applied;
    redo_skipped = !skipped;
    torn_blocks = !torn_blocks;
    torn_records = !torn_records;
  }

(* ---- recovery from a store image ---- *)

let image_of_scan ~num_objects (s : El_store.Log_store.scan) =
  {
    blocks =
      List.map
        (fun (b : El_store.Log_store.block) ->
          {
            records = b.El_store.Log_store.sb_records;
            torn = b.El_store.Log_store.sb_discarded;
          })
        s.El_store.Log_store.s_blocks;
    stable =
      El_disk.Stable_db.of_table ~num_objects s.El_store.Log_store.s_stable;
  }

let recover_store ~num_objects backend =
  recover (image_of_scan ~num_objects (El_store.Log_store.scan backend))
