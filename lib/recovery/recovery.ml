open El_model

type block = { records : Log_record.t list; torn : int }

type image = {
  blocks : block list;
  stable : El_disk.Stable_db.t;
  crash_time : Time.t;
}

let crash engine manager =
  let module M = El_core.El_manager in
  let blocks =
    List.map
      (fun (db : M.durable_block) ->
        match db.M.db_torn_prefix with
        | None -> { records = db.M.db_records; torn = 0 }
        | Some k ->
          (* The torn write persisted the first [k] records intact;
             the suffix hit the platter garbled and reads back as
             nothing. *)
          {
            records = List.filteri (fun i _ -> i < k) db.M.db_records;
            torn = List.length db.M.db_records - k;
          })
      (M.durable_blocks manager)
  in
  {
    blocks;
    stable = El_disk.Stable_db.overlay (M.stable manager);
    crash_time = El_sim.Engine.now engine;
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

let recover ?obs image =
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
  (match obs with
  | None -> ()
  | Some o ->
    (* Recovery happens conceptually at the crash instant; stamping
       the scan there keeps the trace timeline consistent even when
       the image is replayed later (or never) in wall-run order. *)
    El_obs.Obs.emit_at o ~at:image.crash_time El_obs.Event.Recovery
      (El_obs.Event.Recovery_scan
         { records = !scanned; applied = !applied; skipped = !skipped });
    if !torn_blocks > 0 then
      El_obs.Obs.emit_at o ~at:image.crash_time El_obs.Event.Recovery
        (El_obs.Event.Torn_discard
           { blocks = !torn_blocks; records = !torn_records }));
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
    crash_time = Time.zero;
  }

let recover_store ?obs ?upto ~num_objects backend =
  let s = El_store.Log_store.scan ?upto backend in
  recover ?obs (image_of_scan ~num_objects s)
