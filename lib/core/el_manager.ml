open El_model
module Block = El_disk.Block
module Log_channel = El_disk.Log_channel
module Flush_array = El_disk.Flush_array
module Stable_db = El_disk.Stable_db

exception Log_overloaded of string

let overload fmt = Printf.ksprintf (fun s -> raise (Log_overloaded s)) fmt

type slot_state = Free | Filling | Sealed | Durable

(* A buffer destined for a known block slot of its generation.  Hooks
   fire when the disk write completes (group commit acks). *)
type buffer = {
  b_slot : int;
  b_block : Cell.tracked Block.t;
  mutable b_hooks : (Time.t -> unit) list;
  b_seq : int;  (* distinguishes successive current buffers for timeouts *)
}

type gen = {
  g_index : int;
  g_size : int;
  g_last : bool;
  g_blocks : Cell.tracked Block.t option array;  (* logical content by slot *)
  g_durable : Cell.tracked Block.t option array;  (* what a crash would read *)
  g_state : slot_state array;
  mutable g_head : int;  (* oldest occupied slot *)
  mutable g_tail : int;  (* next slot to assign *)
  mutable g_occupied : int;
  g_cells : Cell.Cell_list.t;
  g_channel : Log_channel.t;
  g_occupancy : El_metrics.Gauge.t;
  mutable g_current : buffer option;  (* incoming records being grouped *)
  mutable g_buffer_seq : int;
  mutable g_stage : Cell.tracked Block.t;  (* recirculation staging (last gen) *)
  mutable g_stage_origins : int list;  (* slots whose survivors are staged *)
  g_inflight : (int * Cell.tracked Block.t) Queue.t;
      (* writes issued but not completed, FIFO; the head is the write
         in service.  Tracked here, not via [g_blocks], because a slot
         can be reassigned while an older write for it is still
         queued. *)
  g_fwd_guard : int array;
      (* per slot: in-flight forward writes in the next generation
         that carried this slot's survivors away.  While non-zero the
         slot's durable image is those records' only platter copy, so
         an overwrite of the slot must not reach the platter. *)
  g_parked : buffer Queue.t;
      (* sealed writes held back because their slot is forward-guarded
         (or queued behind one that is): releasing them in FIFO order
         once the guard clears preserves the data-before-commit write
         ordering on the channel. *)
}

type t = {
  engine : El_sim.Engine.t;
  policy : Policy.t;
  ledger : Ledger.t;
  flush : Flush_array.t;
  stable : Stable_db.t;
  gens : gen array;
  placements : int Ids.Tid.Table.t;  (* lifetime-hint target generation *)
  store : El_store.Log_store.t option;
  mutable on_kill : (Ids.Tid.t -> unit) option;
  mutable forwarded : int;
  mutable recirculated : int;
  mutable stage_writes : int;
  mutable kills : int;
  mutable evictions : int;
  mutable forced_head_flushes : int;
  mutable fwd_guard_parks : int;
  obs : El_obs.Obs.t option;
}

(* Each call site matches [t.obs] itself and builds its event only
   under [Some]: an event passed to a helper that matched would be
   allocated with observation off too. *)
let emit o kind = El_obs.Obs.emit o El_obs.Event.Manager kind

let free_slots g = g.g_size - g.g_occupied

let make_gen engine policy ?obs ?fault ?store i =
  let size = policy.Policy.generation_sizes.(i) in
  {
    g_index = i;
    g_size = size;
    g_last = i = Policy.num_generations policy - 1;
    g_blocks = Array.make size None;
    g_durable = Array.make size None;
    g_state = Array.make size Free;
    g_head = 0;
    g_tail = 0;
    g_occupied = 0;
    g_cells = Cell.Cell_list.create ();
    g_channel =
      Log_channel.create engine ~write_time:Params.tau_disk_write
        ~buffer_pool:Params.buffers_per_generation ?obs ~label:i
        ?fault:
          (Option.map (fun inj -> El_fault.Injector.log_gen inj i) fault)
        ?store ();
    g_occupancy =
      El_metrics.Gauge.create ~name:(Printf.sprintf "gen%d occupancy" i) ();
    g_current = None;
    g_buffer_seq = 0;
    g_stage = Block.create ~capacity:policy.Policy.block_payload;
    g_stage_origins = [];
    g_inflight = Queue.create ();
    g_fwd_guard = Array.make size 0;
    g_parked = Queue.create ();
  }

let create engine ~policy ~flush ~stable ?pooled ?obs ?fault ?store () =
  Policy.validate policy;
  let gens =
    Array.init (Policy.num_generations policy)
      (make_gen engine policy ?obs ?fault ?store)
  in
  let remove_cell (c : Cell.t) =
    (* A cell whose record is not yet in any buffer belongs to no
       list (its transaction was killed mid-append). *)
    if c.Cell.slot <> Cell.unplaced_slot then
      Cell.Cell_list.remove gens.(c.Cell.gen).g_cells c
  in
  let t =
    {
      engine;
      policy;
      ledger = Ledger.create ~remove_cell ?pooled ();
      flush;
      stable;
      gens;
      placements = Ids.Tid.Table.create 256;
      store;
      on_kill = None;
      forwarded = 0;
      recirculated = 0;
      stage_writes = 0;
      kills = 0;
      evictions = 0;
      forced_head_flushes = 0;
      fwd_guard_parks = 0;
      obs;
    }
  in
  Flush_array.set_on_flush flush (fun oid ~version ->
      Stable_db.apply stable oid ~version;
      ignore (Ledger.flush_complete t.ledger ~oid ~version));
  t

let set_on_kill t f = t.on_kill <- Some f

(* ---- record / transaction victim handling ---- *)

let kill_tx t tid =
  Ledger.kill t.ledger ~tid;
  t.kills <- t.kills + 1;
  (match t.obs with
  | Some obs -> emit obs (El_obs.Event.Kill { tid = Ids.Tid.to_int tid })
  | None -> ());
  Ids.Tid.Table.remove t.placements tid;
  match t.on_kill with Some f -> f tid | None -> ()

(* Force a committed update out of the log with a forced (random-I/O)
   flush request.  The record stays pinned in the log — carried like
   any survivor — until the flush completes and the disposal cascade
   ([Ledger.flush_complete] via the flush array's completion hook)
   retires it: disposing it at request time would leave the acked
   version durable nowhere for the whole transfer window (the DESIGN
   §11 hole).  The unsafe-eager ablation keeps the pre-fix
   dispose-first behaviour for the negative durability tests. *)
let force_flush_data t cell oid version =
  if t.policy.Policy.unsafe_eager_dispose then Ledger.dispose t.ledger cell
  else Ledger.pin_flush t.ledger cell;
  Flush_array.request_forced t.flush oid ~version

let force_flush_tx t tid =
  match Ledger.find_tx t.ledger tid with
  | None -> ()
  | Some e ->
    let oids =
      Ids.Oid.Table.fold (fun oid () acc -> oid :: acc) e.Cell.write_set []
    in
    List.iter
      (fun oid ->
        match Ledger.committed_cell t.ledger oid with
        | Some (cell, version) -> (
          match Ledger.classify t.ledger cell with
          | Ledger.Flush_pinned -> ()  (* forced flush already in flight *)
          | _ -> force_flush_data t cell oid version)
        | None -> ())
      oids
(* draining the write set retires the LTT entry and its tx record *)

(* A surviving record that cannot be carried along: an active writer is
   killed (the paper's kill-on-no-space rule); a commit-pending one can
   be neither kept nor killed.  [context] only flavours the overload
   message. *)
let kill_or_overload t (cell : Cell.t) ~context =
  let tid = Ledger.writer_tid cell in
  match Ledger.tx_state t.ledger tid with
  | Some `Active -> kill_tx t tid
  | Some `Commit_pending ->
    overload
      "%s: record of commit-pending transaction %d cannot be kept nor killed"
      context (Ids.Tid.to_int tid)
  | Some `Committed | None -> assert false

(* Stat and event bookkeeping for a forced flush.  Under the safe
   discipline the record survives in the log whatever the context, so
   every forced flush counts as a head flush; only the unsafe-eager
   ablation's pressure paths really evict. *)
let note_forced t ~count_as ~target ~committed_tx =
  match count_as with
  | `Eviction when t.policy.Policy.unsafe_eager_dispose ->
    t.evictions <- t.evictions + 1;
    (match t.obs with
    | Some obs -> emit obs (El_obs.Event.Evict { target; committed_tx })
    | None -> ())
  | `Eviction | `Head_flush ->
    t.forced_head_flushes <- t.forced_head_flushes + 1

(* ---- slot and buffer mechanics ---- *)

let set_occupancy g =
  El_metrics.Gauge.set g.g_occupancy g.g_occupied

let free_slot g s =
  assert (s = g.g_head);
  assert (g.g_occupied > 0);
  g.g_head <- (s + 1) mod g.g_size;
  g.g_occupied <- g.g_occupied - 1;
  g.g_state.(s) <- Free;
  set_occupancy g

let block_records block =
  List.map (fun (tr : Cell.tracked) -> tr.Cell.record) (Block.items block)

(* Hand a sealed buffer to the generation's channel. *)
let channel_issue t g (buf : buffer) =
  Queue.add (buf.b_slot, buf.b_block) g.g_inflight;
  Log_channel.write
    ~payload:(fun () -> (buf.b_slot, block_records buf.b_block))
    g.g_channel
    ~on_complete:(fun () ->
      (let s, _ = Queue.pop g.g_inflight in
       assert (s = buf.b_slot));
      g.g_state.(buf.b_slot) <-
        (if g.g_state.(buf.b_slot) = Sealed then Durable
         else g.g_state.(buf.b_slot));
      g.g_durable.(buf.b_slot) <- Some buf.b_block;
      let now = El_sim.Engine.now t.engine in
      List.iter (fun hook -> hook now) (List.rev buf.b_hooks);
      buf.b_hooks <- [])

(* Release writes parked behind a forward guard, in seal order, up to
   the first slot still guarded. *)
let rec drain_parked t g =
  match Queue.peek_opt g.g_parked with
  | Some buf when g.g_fwd_guard.(buf.b_slot) = 0 ->
    ignore (Queue.pop g.g_parked);
    channel_issue t g buf;
    drain_parked t g
  | Some _ | None -> ()

(* Issue a sealed buffer to the generation's channel.

   Durability guard for forwarding (the cross-channel analogue of the
   recirculation guard in [assign_slot]): while a forward write in the
   next generation is still in flight, the origin slot's durable image
   is its records' only platter copy, so a reissued write for that
   slot must not start — on a backlogged next-generation channel the
   overwrite would win the race and a crash would lose acked updates.
   The write is parked, and every later seal queues behind it so the
   channel still completes writes in seal order (group commit relies
   on data records reaching the platter before their commit record). *)
let issue_write t g (buf : buffer) =
  g.g_state.(buf.b_slot) <- Sealed;
  if
    g.g_fwd_guard.(buf.b_slot) > 0 || not (Queue.is_empty g.g_parked)
  then begin
    t.fwd_guard_parks <- t.fwd_guard_parks + 1;
    Queue.add buf g.g_parked
  end
  else channel_issue t g buf

let rec assign_slot t g =
  (* Durability guard for recirculation: the slot about to be reused
     may hold the only durable copies of records currently staged in
     RAM; write the stage out first (§2.2: existing copies must not be
     overwritten before the recirculated block reaches the tail). *)
  if g.g_last && List.mem g.g_tail g.g_stage_origins then write_stage t g;
  if free_slots g = 0 then
    overload "generation %d: no free block to assign" g.g_index;
  let s = g.g_tail in
  g.g_tail <- (s + 1) mod g.g_size;
  g.g_occupied <- g.g_occupied + 1;
  set_occupancy g;
  s

(* Write the recirculation staging buffer at the last generation's
   tail.  When the generation is completely full, active writers die
   (the paper's kill-on-no-space rule) but committed records cannot be
   dropped — an acked update must stay durable until its flush
   completes — so they are force-flushed and re-staged, their origin
   slots still guarded.  If nothing was killable the generation is
   genuinely wedged on in-flight commits and the run overloads. *)
and write_stage t g =
  if not (Block.is_empty g.g_stage) then begin
    let content = g.g_stage in
    let origins = g.g_stage_origins in
    g.g_stage <- Block.create ~capacity:t.policy.Policy.block_payload;
    g.g_stage_origins <- [];
    if free_slots g = 0 then begin
      let killed = ref false in
      Block.iter
        (fun (tr : Cell.tracked) ->
          match tr.Cell.cell with
          | None -> ()
          | Some cell -> (
            match Ledger.classify t.ledger cell with
            | Ledger.Keep_active ->
              kill_or_overload t cell ~context:"recirculation";
              killed := true
            | Ledger.Committed_data (oid, version) ->
              force_flush_data t cell oid version;
              note_forced t ~count_as:`Eviction ~target:(Ids.Oid.to_int oid)
                ~committed_tx:false
            | Ledger.Committed_tx tid ->
              force_flush_tx t tid;
              note_forced t ~count_as:`Eviction ~target:(Ids.Tid.to_int tid)
                ~committed_tx:true
            | Ledger.Flush_pinned -> ()))
        content;
      (* Whatever is still live after the kill/dispose pass (pinned
         updates and their commit evidence — nothing, under the eager
         ablation) goes back on the stage. *)
      let restaged = ref 0 in
      Block.iter
        (fun (tr : Cell.tracked) ->
          match tr.Cell.cell with
          | None -> ()
          | Some _ ->
            Block.add g.g_stage ~size:tr.Cell.record.Log_record.size tr;
            incr restaged)
        content;
      if !restaged > 0 then begin
        g.g_stage_origins <- origins;
        if not !killed then
          overload
            "generation %d: stage full of acked records awaiting their \
             flushes; nothing can be killed"
            g.g_index
      end
    end
    else begin
      let s = assign_slot t g in
      let live = ref 0 in
      Block.iter
        (fun (tr : Cell.tracked) ->
          match tr.Cell.cell with
          | None -> ()
          | Some cell ->
            assert (cell.Cell.slot = Cell.staged_slot);
            cell.Cell.slot <- s;
            incr live)
        content;
      if !live = 0 then begin
        (* Everything staged died in the meantime; return the slot by
           rolling the tail back (nothing was written yet). *)
        g.g_tail <- s;
        g.g_occupied <- g.g_occupied - 1;
        set_occupancy g
      end
      else begin
        g.g_blocks.(s) <- Some content;
        t.stage_writes <- t.stage_writes + 1;
        (match t.obs with
        | Some obs ->
          emit obs
            (El_obs.Event.Stage_write { gen = g.g_index; records = !live })
        | None -> ());
        issue_write t g { b_slot = s; b_block = content; b_hooks = []; b_seq = -1 }
      end
    end
  end

(* Move one surviving cell of head slot [origin] into the last
   generation's staging buffer (to be rewritten at the tail); shared by
   recirculation and by the no-recirculation head path that must keep
   pinned committed records alive until their flushes land. *)
let stage_survivor t g ~origin (cell : Cell.t) =
  let tr = cell.Cell.tracked in
  let size = tr.Cell.record.Log_record.size in
  if not (Block.fits g.g_stage ~size) then write_stage t g;
  (* writing the stage can kill transactions; re-check liveness *)
  match tr.Cell.cell with
  | None -> ()
  | Some cell ->
    Block.add g.g_stage ~size tr;
    Cell.Cell_list.remove g.g_cells cell;
    cell.Cell.slot <- Cell.staged_slot;
    Cell.Cell_list.insert_tail g.g_cells cell;
    if not (List.mem origin g.g_stage_origins) then
      g.g_stage_origins <- origin :: g.g_stage_origins;
    t.recirculated <- t.recirculated + 1

(* ---- head advance: discard, forward, recirculate ---- *)

let survivors_of g s =
  match g.g_blocks.(s) with
  | None -> []
  | Some block ->
    List.filter
      (fun (tr : Cell.tracked) ->
        match tr.Cell.cell with
        | Some c -> c.Cell.gen = g.g_index && c.Cell.slot = s
        | None -> false)
      (Block.items block)

let current_slot g =
  match g.g_current with Some b -> Some b.b_slot | None -> None

let rec seal_current t g =
  match g.g_current with
  | None -> ()
  | Some buf ->
    g.g_current <- None;
    (match t.obs with
    | Some obs ->
      emit obs
        (El_obs.Event.Seal { gen = g.g_index; slot = buf.b_slot })
    | None -> ());
    issue_write t g buf

(* Move survivors from the head of [g] into a block written at the
   tail of the next generation, backfilling from subsequent head
   blocks to fill the outgoing buffer as full as possible (§2.2). *)
and forward t g s survivors =
  let next = t.gens.(g.g_index + 1) in
  if survivors = [] then free_slot g s
  else begin
    ensure_space t next ~extra:1;
    let s' = assign_slot t next in
    let buf = Block.create ~capacity:t.policy.Policy.block_payload in
    let moved = ref 0 in
    let origins = ref [] in
    (* Walk the generation's cell list from its head: the mandatory
       survivors of slot [s] come first, then backfill from younger
       blocks until the outgoing buffer is full. *)
    let stop = ref false in
    while not !stop do
      match Cell.Cell_list.head g.g_cells with
      | None -> stop := true
      | Some c ->
        let size = c.Cell.tracked.Cell.record.Log_record.size in
        let mandatory = c.Cell.slot = s in
        let in_open_buffer = Some c.Cell.slot = current_slot g in
        let durable =
          c.Cell.slot >= 0 && g.g_state.(c.Cell.slot) = Durable
        in
        if
          (not mandatory)
          && ((not t.policy.Policy.forward_backfill)
             || in_open_buffer || not durable)
        then stop := true
        else if not (Block.fits buf ~size) then begin
          if mandatory then
            (* impossible: one block's survivors cannot exceed a block *)
            assert false;
          stop := true
        end
        else begin
          (* Under the forced-flush policy a committed update is
             flushed at the head instead of waiting for a scheduled
             flush — but its record is pinned and carried until the
             flush completes (a pinned record passing another head is
             not re-requested). *)
          (match Ledger.classify t.ledger c with
          | Ledger.Committed_data (oid, version)
            when t.policy.Policy.unflushed = Policy.Force_flush ->
            force_flush_data t c oid version;
            t.forced_head_flushes <- t.forced_head_flushes + 1
          | Ledger.Keep_active | Ledger.Committed_tx _ | Ledger.Committed_data _
          | Ledger.Flush_pinned ->
            ());
          match c.Cell.tracked.Cell.cell with
          | None -> ()  (* the eager ablation disposed it at request *)
          | Some _ ->
            if
              c.Cell.slot >= 0 && not (List.mem c.Cell.slot !origins)
            then origins := c.Cell.slot :: !origins;
            Cell.Cell_list.remove g.g_cells c;
            c.Cell.gen <- next.g_index;
            c.Cell.slot <- s';
            Cell.Cell_list.insert_tail next.g_cells c;
            Block.add buf ~size c.Cell.tracked;
            incr moved
        end
    done;
    if !moved = 0 then begin
      (* every candidate was flushed away: give the slot back *)
      next.g_tail <- s';
      next.g_occupied <- next.g_occupied - 1;
      set_occupancy next
    end
    else begin
      t.forwarded <- t.forwarded + !moved;
      (match t.obs with
      | Some obs ->
        emit obs
          (El_obs.Event.Forward
             { from_gen = g.g_index; to_gen = next.g_index; records = !moved })
      | None -> ());
      next.g_blocks.(s') <- Some buf;
      (* Arm the origin guard: until this write is on the platter, no
         reissued write for an origin slot may start (see
         [issue_write]); the completion hook releases any parked
         writes in order. *)
      let guarded = !origins in
      List.iter
        (fun o -> g.g_fwd_guard.(o) <- g.g_fwd_guard.(o) + 1)
        guarded;
      let release _now =
        List.iter
          (fun o -> g.g_fwd_guard.(o) <- g.g_fwd_guard.(o) - 1)
          guarded;
        drain_parked t g
      in
      issue_write t next
        { b_slot = s'; b_block = buf; b_hooks = [ release ]; b_seq = -1 }
    end;
    free_slot g s
  end

(* Recirculate the survivors of the last generation's head block
   through the staging buffer (§2.2: records are removed one block at
   a time and written back at the tail). *)
and recirculate t g s survivors =
  let before = t.recirculated in
  List.iter
    (fun (tr : Cell.tracked) ->
      match tr.Cell.cell with
      | None -> ()
      | Some cell ->
        (match Ledger.classify t.ledger cell with
        | Ledger.Committed_data (oid, version)
          when t.policy.Policy.unflushed = Policy.Force_flush ->
          force_flush_data t cell oid version;
          t.forced_head_flushes <- t.forced_head_flushes + 1
        | Ledger.Keep_active | Ledger.Committed_tx _ | Ledger.Committed_data _
        | Ledger.Flush_pinned ->
          ());
        (* A pinned record recirculates like any survivor until its
           flush completes; the eager ablation just disposed it. *)
        (match tr.Cell.cell with
        | None -> ()
        | Some cell -> stage_survivor t g ~origin:s cell))
    survivors;
  if t.recirculated > before then
    (match t.obs with
    | Some obs ->
      emit obs
        (El_obs.Event.Recirculate
           { gen = g.g_index; records = t.recirculated - before })
    | None -> ());
  free_slot g s

and advance_head t g =
  if g.g_occupied = 0 then
    overload "generation %d: empty but more space demanded" g.g_index;
  let s = g.g_head in
  (* If the head caught up with the buffer still being filled, the
     generation is far too small; seal it so it can be processed. *)
  if Some s = current_slot g then seal_current t g;
  let survivors = survivors_of g s in
  (match t.obs with
  | Some obs ->
    emit obs
      (El_obs.Event.Head_advance
         { gen = g.g_index; slot = s; survivors = List.length survivors })
  | None -> ());
  if survivors = [] then free_slot g s
  else if not g.g_last then forward t g s survivors
  else if t.policy.Policy.recirculate then recirculate t g s survivors
  else begin
    (* Recirculation off: nothing can be kept past the last head.
       Active writers die (kill-on-no-space) and committed updates are
       forced out — but an acked update must stay durable until its
       flush completes, so such records (and the commit evidence
       anchoring them) ride the staging buffer instead of being
       dropped; the completion path retires them. *)
    List.iter
      (fun (tr : Cell.tracked) ->
        match tr.Cell.cell with
        | None -> ()
        | Some cell ->
          (match Ledger.classify t.ledger cell with
          | Ledger.Keep_active ->
            kill_or_overload t cell ~context:"last-generation head"
          | Ledger.Committed_data (oid, version) ->
            force_flush_data t cell oid version;
            note_forced t ~count_as:`Head_flush ~target:(Ids.Oid.to_int oid)
              ~committed_tx:false
          | Ledger.Committed_tx tid ->
            force_flush_tx t tid;
            note_forced t ~count_as:`Head_flush ~target:(Ids.Tid.to_int tid)
              ~committed_tx:true
          | Ledger.Flush_pinned -> ());
          (match tr.Cell.cell with
          | None -> ()  (* killed, or eager-disposed *)
          | Some cell -> stage_survivor t g ~origin:s cell))
      survivors;
    free_slot g s
  end

(* Make room for [extra] assignments beyond the paper's k-block gap.
   Each head advance frees one slot; in the last generation staging
   writes may take slots back, so progress is forced by evicting or
   killing once a full sweep has not created room. *)
and ensure_space t g ~extra =
  let target = Params.head_tail_gap + extra in
  if target > g.g_size then
    overload "generation %d: %d blocks cannot provide %d free" g.g_index
      g.g_size target;
  let budget = ref ((2 * g.g_size) + 4) in
  while free_slots g < target do
    advance_head t g;
    decr budget;
    if !budget <= 0 && free_slots g < target then begin
      relieve_pressure t g;
      budget := (2 * g.g_size) + 4
    end
  done

and relieve_pressure t g =
  (* Find a victim, scanning from the head: kill an active transaction
     (the paper's rule).  Committed records are no longer evictable —
     disposing an acked update before its flush lands is the DESIGN
     §11 durability hole — so a generation wedged on in-flight commits
     overloads instead of silently dropping durability.  The
     unsafe-eager ablation keeps the pre-fix eviction for the negative
     durability tests. *)
  let cells = Cell.Cell_list.to_list g.g_cells in
  let is_active c =
    Ledger.tx_state t.ledger (Ledger.writer_tid c) = Some `Active
  in
  match List.find_opt is_active cells with
  | Some c -> kill_tx t (Ledger.writer_tid c)
  | None when t.policy.Policy.unsafe_eager_dispose -> (
    let evictable c =
      match Ledger.classify t.ledger c with
      | Ledger.Committed_data _ | Ledger.Committed_tx _ -> true
      | Ledger.Keep_active | Ledger.Flush_pinned -> false
    in
    match List.find_opt evictable cells with
    | Some c -> (
      match Ledger.classify t.ledger c with
      | Ledger.Committed_data (oid, version) ->
        force_flush_data t c oid version;
        note_forced t ~count_as:`Eviction ~target:(Ids.Oid.to_int oid)
          ~committed_tx:false
      | Ledger.Committed_tx tid ->
        force_flush_tx t tid;
        note_forced t ~count_as:`Eviction ~target:(Ids.Tid.to_int tid)
          ~committed_tx:true
      | Ledger.Keep_active | Ledger.Flush_pinned -> assert false)
    | None ->
      overload
        "generation %d: full of records of in-flight commits; nothing can be \
         killed or evicted"
        g.g_index)
  | None ->
    overload
      "generation %d: nothing can be killed, and acked records cannot be \
       evicted before their flushes complete"
      g.g_index

(* ---- incoming records (tail of a chosen generation) ---- *)

let schedule_group_timeout t g buf =
  match t.policy.Policy.group_commit_timeout with
  | None -> ()
  | Some delay ->
    El_sim.Engine.schedule_after t.engine delay (fun () ->
        match g.g_current with
        | Some b when b.b_seq = buf.b_seq -> seal_current t g
        | Some _ | None -> ())

let current_buffer t g ~size =
  (match g.g_current with
  | Some buf when not (Block.fits buf.b_block ~size) -> seal_current t g
  | Some _ | None -> ());
  match g.g_current with
  | Some buf -> buf
  | None ->
    ensure_space t g ~extra:1;
    let s = assign_slot t g in
    let block = Block.create ~capacity:t.policy.Policy.block_payload in
    g.g_buffer_seq <- g.g_buffer_seq + 1;
    let buf = { b_slot = s; b_block = block; b_hooks = []; b_seq = g.g_buffer_seq } in
    g.g_blocks.(s) <- Some block;
    g.g_state.(s) <- Filling;
    g.g_current <- Some buf;
    schedule_group_timeout t g buf;
    buf

let append_incoming t ~gen_index (tracked : Cell.tracked) ~hook =
  let g = t.gens.(gen_index) in
  let size = tracked.Cell.record.Log_record.size in
  if size > t.policy.Policy.block_payload then
    overload "record of %d bytes exceeds the block payload" size;
  let buf = current_buffer t g ~size in
  Block.add buf.b_block ~size tracked;
  (match t.obs with
  | Some obs ->
    emit obs
      (El_obs.Event.Append
         {
           gen = gen_index;
           slot = buf.b_slot;
           tid = Ids.Tid.to_int tracked.Cell.record.Log_record.tid;
           size;
         })
  | None -> ());
  (match tracked.Cell.cell with
  | Some cell ->
    cell.Cell.gen <- gen_index;
    cell.Cell.slot <- buf.b_slot;
    Cell.Cell_list.insert_tail g.g_cells cell
  | None -> ());
  match hook with
  | Some h -> buf.b_hooks <- h :: buf.b_hooks
  | None -> ()

(* ---- lifetime-hint placement (§6 extension) ---- *)

let placement_gen t ~expected_duration =
  match t.policy.Policy.placement with
  | Policy.Youngest -> 0
  | Policy.Lifetime_hint ->
    let elapsed = Time.to_sec_f (El_sim.Engine.now t.engine) in
    if elapsed < 5.0 then 0
    else begin
      let n = Array.length t.gens in
      let wanted = Time.to_sec_f expected_duration *. 1.2 in
      let rec pick i =
        if i >= n then n - 1
        else
          let g = t.gens.(i) in
          let rate =
            float_of_int (Log_channel.writes_started g.g_channel) /. elapsed
          in
          let retention =
            if rate <= 0.0 then infinity else float_of_int g.g_size /. rate
          in
          if retention >= wanted then i else pick (i + 1)
      in
      pick 0
    end

let gen_of_tid t tid =
  match Ids.Tid.Table.find_opt t.placements tid with
  | Some g -> g
  | None -> 0

(* ---- the logging interface ---- *)

let begin_tx t ~tid ~expected_duration =
  let timestamp = El_sim.Engine.now t.engine in
  let cell =
    Ledger.begin_tx t.ledger ~tid ~expected_duration ~timestamp
      ~size:Params.tx_record_size
  in
  let gen_index = placement_gen t ~expected_duration in
  if gen_index > 0 then Ids.Tid.Table.replace t.placements tid gen_index;
  append_incoming t ~gen_index cell.Cell.tracked ~hook:None

let write_data t ~tid ~oid ~version ~size =
  let timestamp = El_sim.Engine.now t.engine in
  let cell = Ledger.write_data t.ledger ~tid ~oid ~version ~size ~timestamp in
  append_incoming t ~gen_index:(gen_of_tid t tid) cell.Cell.tracked ~hook:None

let request_commit t ~tid ~on_ack =
  let timestamp = El_sim.Engine.now t.engine in
  let cell =
    Ledger.request_commit t.ledger ~tid ~timestamp
      ~size:Params.tx_record_size
  in
  let hook ack_time =
    let to_flush = Ledger.commit_durable t.ledger ~tid in
    List.iter
      (fun (oid, version) -> Flush_array.request t.flush oid ~version)
      to_flush;
    (match t.obs with
    | None -> ()
    | Some o ->
      let latency = Time.sub ack_time timestamp in
      El_obs.Obs.emit o El_obs.Event.Manager
        (El_obs.Event.Commit_ack { tid = Ids.Tid.to_int tid; latency });
      El_obs.Histogram.observe
        (El_obs.Obs.histogram ~lowest:1000.0 ~buckets:24 o "commit.latency_us")
        (float_of_int (Time.to_us latency)));
    Ids.Tid.Table.remove t.placements tid;
    on_ack ack_time
  in
  append_incoming t ~gen_index:(gen_of_tid t tid) cell.Cell.tracked
    ~hook:(Some hook)

let request_abort t ~tid =
  let timestamp = El_sim.Engine.now t.engine in
  let gen_index = gen_of_tid t tid in
  let tracked =
    Ledger.request_abort t.ledger ~tid ~timestamp
      ~size:Params.tx_record_size
  in
  Ids.Tid.Table.remove t.placements tid;
  (match t.obs with
  | Some obs -> emit obs (El_obs.Event.Abort { tid = Ids.Tid.to_int tid })
  | None -> ());
  append_incoming t ~gen_index tracked ~hook:None

let drain t =
  (* Staged recirculation records need no write here: their durable
     copies still sit in their origin blocks. *)
  Array.iter (fun g -> seal_current t g) t.gens

(* ---- introspection ---- *)

type stats = {
  generation_sizes : int array;
  log_writes_per_gen : int array;
  total_log_writes : int;
  forwarded_records : int;
  recirculated_records : int;
  stage_writes : int;
  kills : int;
  evictions : int;
  forced_head_flushes : int;
  fwd_guard_parks : int;
  peak_occupancy_per_gen : int array;
  peak_memory_bytes : int;
  current_memory_bytes : int;
  lot_entries : int;
  ltt_entries : int;
  buffer_pool_overflows : int;
}

let stats t =
  let per_gen =
    Array.map (fun g -> Log_channel.writes_started g.g_channel) t.gens
  in
  {
    generation_sizes = Array.copy t.policy.Policy.generation_sizes;
    log_writes_per_gen = per_gen;
    total_log_writes = Array.fold_left ( + ) 0 per_gen;
    forwarded_records = t.forwarded;
    recirculated_records = t.recirculated;
    stage_writes = t.stage_writes;
    kills = t.kills;
    evictions = t.evictions;
    forced_head_flushes = t.forced_head_flushes;
    fwd_guard_parks = t.fwd_guard_parks;
    peak_occupancy_per_gen =
      Array.map (fun g -> El_metrics.Gauge.max_value g.g_occupancy) t.gens;
    peak_memory_bytes = Ledger.peak_memory_bytes t.ledger;
    current_memory_bytes = Ledger.memory_bytes t.ledger;
    lot_entries = Ledger.lot_size t.ledger;
    ltt_entries = Ledger.ltt_size t.ledger;
    buffer_pool_overflows =
      Array.fold_left
        (fun acc g -> acc + Log_channel.pool_overflows g.g_channel)
        0 t.gens;
  }

let ledger t = t.ledger
let policy t = t.policy
let occupied_blocks t = Array.map (fun g -> g.g_occupied) t.gens

let slot_occupied g s =
  g.g_occupied = g.g_size
  || (s - g.g_head + g.g_size) mod g.g_size < g.g_occupied

(* The checks that name what they caught raise [Failure] with it. *)
let violated fmt = Format.kasprintf failwith fmt

(* One in-place walk of each generation's ring, which also checks the
   ring's links; a cell's block is searched where it lies. *)
let check_invariants t =
  Ledger.check_invariants t.ledger;
  let fifo = t.policy.Policy.placement = Policy.Youngest in
  let listed = ref 0 in
  Array.iter
    (fun g ->
      assert (g.g_occupied >= 0 && g.g_occupied <= g.g_size);
      assert (g.g_head >= 0 && g.g_head < g.g_size);
      assert (g.g_tail >= 0 && g.g_tail < g.g_size);
      if g.g_tail <> (g.g_head + g.g_occupied) mod g.g_size then
        violated "gen %d: tail %d <> head %d + occupied %d (mod %d)" g.g_index
          g.g_tail g.g_head g.g_occupied g.g_size;
      let gauge = El_metrics.Gauge.value g.g_occupancy in
      if gauge <> g.g_occupied then
        violated "gen %d: occupancy gauge %d <> occupied %d" g.g_index gauge
          g.g_occupied;
      let last_pos = ref (-1) in
      Cell.Cell_list.iter
        (fun (c : Cell.t) ->
          incr listed;
          assert (c.Cell.gen = g.g_index);
          assert (not (Cell.is_garbage c.Cell.tracked));
          if c.Cell.slot = Cell.staged_slot then
            (* staged records only exist in the last generation *)
            assert g.g_last
          else begin
            assert (c.Cell.slot >= 0 && c.Cell.slot < g.g_size);
            (* the record's block really holds it *)
            (match g.g_blocks.(c.Cell.slot) with
            | Some block -> assert (Block.memq c.Cell.tracked block)
            | None -> assert false);
            if not (slot_occupied g c.Cell.slot) then
              violated "gen %d: cell in unoccupied slot %d (head %d, occ %d)"
                g.g_index c.Cell.slot g.g_head g.g_occupied;
            (* FIFO: head-to-tail cell order follows ring slot order.
               Only provable for non-last generations under the base
               placement: staging (last gen) and lifetime hints
               interleave entry points. *)
            if fifo && not g.g_last then begin
              let p = (c.Cell.slot - g.g_head + g.g_size) mod g.g_size in
              if p < !last_pos then
                violated
                  "gen %d: FIFO order violated — slot %d (ring %d) listed \
                   after ring position %d"
                  g.g_index c.Cell.slot p !last_pos;
              last_pos := p
            end
          end)
        g.g_cells)
    t.gens;
  (* no cell is orphaned on either side *)
  let live = Ledger.live_cells t.ledger in
  if live <> !listed then
    violated "ledger reaches %d live cells but generation lists hold %d" live
      !listed

type durable_block = {
  db_gen : int;
  db_slot : int;
  db_records : Log_record.t list;
  db_torn_prefix : int option;
}

let durable_blocks t =
  let acc = ref [] in
  Array.iter
    (fun g ->
      (* A torn verdict only materializes for the write actually in
         service at the crash: the channel is sequential, so that is
         the head of the in-flight queue.  Its slot's previous durable
         content is partially overwritten — the crash image holds the
         new block's prefix, with the suffix (at least the final
         record) destroyed. *)
      let torn =
        match Log_channel.in_service_torn g.g_channel with
        | None -> None
        | Some f -> (
          match Queue.peek_opt g.g_inflight with
          | None -> None
          | Some (slot, block) -> Some (slot, block, f))
      in
      let torn_slot =
        match torn with Some (s, _, _) -> Some s | None -> None
      in
      Array.iteri
        (fun s durable ->
          if Some s <> torn_slot then
            match durable with
            | None -> ()
            | Some block ->
              acc :=
                {
                  db_gen = g.g_index;
                  db_slot = s;
                  db_records = block_records block;
                  db_torn_prefix = None;
                }
                :: !acc)
        g.g_durable;
      match torn with
      | None -> ()
      | Some (s, block, f) ->
        let records = block_records block in
        let n = List.length records in
        let k = El_store.Log_store.torn_keep ~count:n f in
        acc :=
          {
            db_gen = g.g_index;
            db_slot = s;
            db_records = records;
            db_torn_prefix = Some k;
          }
          :: !acc)
    t.gens;
  !acc

let stable t = t.stable

(* Freeze the store at the crash instant: persist each channel's torn
   in-service write, then mark the position.  A later scan bounded by
   the mark replays exactly the image a crash now would leave — the
   write currently in service will still complete in simulation and
   append a full segment, but under a sequence number at or above the
   mark, so bounded scans never see it. *)
let persist_crash_mark t =
  match t.store with
  | None -> None
  | Some store ->
    Array.iter (fun g -> Log_channel.crash_persist g.g_channel) t.gens;
    Some (El_store.Log_store.position store)
