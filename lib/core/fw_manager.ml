open El_model
module Block = El_disk.Block
module Log_channel = El_disk.Log_channel

type buffer = {
  b_slot : int;
  b_block : Log_record.t Block.t;
  mutable b_hooks : (Time.t -> unit) list;
}

type tx = {
  tid : Ids.Tid.t;
  begun_at : Time.t;
  mutable record_slots : int list;
  mutable terminated : bool;
  (* intrusive links of the begun_at-ordered active list; the head is
     the firewall transaction, i.e. the kill victim *)
  mutable a_prev : tx option;
  mutable a_next : tx option;
  mutable a_linked : bool;
}

type checkpointing = { interval : Time.t; cost_blocks : int }

type t = {
  engine : El_sim.Engine.t;
  size : int;
  block_payload : int;
  tx_record_size : int;
  live : int array;  (* per-slot count of records from active transactions *)
  mutable head : int;
  mutable tail : int;
  mutable occupied : int;
  channel : Log_channel.t;
  mutable current : buffer option;
  txs : tx Ids.Tid.Table.t;
  mutable act_head : tx option;
  mutable act_tail : tx option;
  occupancy : El_metrics.Gauge.t;
  memory : El_metrics.Gauge.t;
  mutable kills : int;
  mutable on_kill : (Ids.Tid.t -> unit) option;
  checkpointing : checkpointing option;
  mutable awaiting_checkpoint : int list;  (* slots of committed records *)
  mutable checkpoints : int;
  mutable checkpoint_writes : int;
  obs : El_obs.Obs.t option;
}

let gap = Params.head_tail_gap
let bytes_per_tx = Params.fw_bytes_per_tx

(* Each call site matches [t.obs] itself and builds its event only
   under [Some]: an event passed to a helper that matched would be
   allocated with observation off too. *)
let emit o kind = El_obs.Obs.emit o El_obs.Event.Manager kind

let current_slot t = match t.current with Some b -> Some b.b_slot | None -> None

(* Reclaim eagerly: every block up to the firewall (the head-most slot
   still holding an active transaction's record) is free space. *)
let reclaim t =
  let continue = ref true in
  while !continue && t.occupied > 0 do
    if t.live.(t.head) > 0 || Some t.head = current_slot t then
      continue := false
    else begin
      t.head <- (t.head + 1) mod t.size;
      t.occupied <- t.occupied - 1
    end
  done;
  El_metrics.Gauge.set t.occupancy t.occupied

let take_checkpoint t =
  match t.checkpointing with
  | None -> ()
  | Some c ->
    t.checkpoints <- t.checkpoints + 1;
    (match t.obs with
    | Some obs ->
      emit obs
        (El_obs.Event.Checkpoint { blocks = c.cost_blocks })
    | None -> ());
    for _ = 1 to c.cost_blocks do
      t.checkpoint_writes <- t.checkpoint_writes + 1;
      Log_channel.write t.channel ~on_complete:(fun () -> ())
    done;
    List.iter
      (fun slot -> t.live.(slot) <- t.live.(slot) - 1)
      t.awaiting_checkpoint;
    t.awaiting_checkpoint <- [];
    reclaim t

let create engine ~size_blocks ?(block_payload = Params.block_payload)
    ?(write_time = Params.tau_disk_write)
    ?(tx_record_size = Params.tx_record_size) ?checkpointing ?obs ?fault ?store
    () =
  if size_blocks < gap + 2 then
    invalid_arg "Fw_manager.create: log needs at least gap+2 blocks";
  (match checkpointing with
  | Some c ->
    if Time.(c.interval <= Time.zero) || c.cost_blocks < 0 then
      invalid_arg "Fw_manager.create: bad checkpointing parameters"
  | None -> ());
  let t = {
    engine;
    size = size_blocks;
    block_payload;
    tx_record_size;
    live = Array.make size_blocks 0;
    head = 0;
    tail = 0;
    occupied = 0;
    channel =
      Log_channel.create engine ~write_time
        ~buffer_pool:Params.buffers_per_generation ?obs ~label:0
        ?fault:(Option.map (fun inj -> El_fault.Injector.log_gen inj 0) fault)
        ?store ();
    current = None;
    txs = Ids.Tid.Table.create 1024;
    act_head = None;
    act_tail = None;
    occupancy = El_metrics.Gauge.create ~name:"FW occupancy" ();
    memory = El_metrics.Gauge.create ~name:"FW memory" ();
    kills = 0;
    on_kill = None;
    checkpointing;
    awaiting_checkpoint = [];
    checkpoints = 0;
    checkpoint_writes = 0;
    obs;
  }
  in
  (* Periodic checkpoints: each one writes its cost to the log and
     releases every record committed since the previous one. *)
  (match checkpointing with
  | None -> ()
  | Some c ->
    let rec tick () =
      El_sim.Engine.schedule_after engine c.interval (fun () ->
          take_checkpoint t;
          tick ())
    in
    tick ());
  t

let set_on_kill t f = t.on_kill <- Some f
let free_slots t = t.size - t.occupied

(* Begin timestamps come from the engine clock and are monotone, so
   this is an O(1) tail append; the backwards walk only runs if a
   caller could ever begin transactions out of order. *)
let active_append t tx =
  assert (not tx.a_linked);
  tx.a_linked <- true;
  let rec find_pred = function
    | None -> None
    | Some p ->
      if Time.(p.begun_at <= tx.begun_at) then Some p else find_pred p.a_prev
  in
  match find_pred t.act_tail with
  | None ->
    tx.a_prev <- None;
    tx.a_next <- t.act_head;
    (match t.act_head with
    | Some h -> h.a_prev <- Some tx
    | None -> t.act_tail <- Some tx);
    t.act_head <- Some tx
  | Some p ->
    tx.a_prev <- Some p;
    tx.a_next <- p.a_next;
    (match p.a_next with
    | Some n -> n.a_prev <- Some tx
    | None -> t.act_tail <- Some tx);
    p.a_next <- Some tx

let active_unlink t tx =
  if tx.a_linked then begin
    (match tx.a_prev with
    | Some p -> p.a_next <- tx.a_next
    | None -> t.act_head <- tx.a_next);
    (match tx.a_next with
    | Some n -> n.a_prev <- tx.a_prev
    | None -> t.act_tail <- tx.a_prev);
    tx.a_prev <- None;
    tx.a_next <- None;
    tx.a_linked <- false
  end

let drop_tx_records t tx =
  List.iter (fun slot -> t.live.(slot) <- t.live.(slot) - 1) tx.record_slots;
  tx.record_slots <- []

let terminate ?(committed = false) t tx =
  if not tx.terminated then begin
    tx.terminated <- true;
    (match (t.checkpointing, committed) with
    | Some _, true ->
      (* REDO information must survive until the next checkpoint. *)
      t.awaiting_checkpoint <- tx.record_slots @ t.awaiting_checkpoint;
      tx.record_slots <- []
    | (Some _ | None), _ -> drop_tx_records t tx);
    active_unlink t tx;
    Ids.Tid.Table.remove t.txs tx.tid;
    El_metrics.Gauge.add t.memory (-bytes_per_tx);
    reclaim t
  end

let kill_oldest_active t =
  (* O(1): the head of the active list (vs the full-table fold this
     replaced — that fold ran on every forced reclamation, making log
     pressure quadratic in the transaction population). *)
  match t.act_head with
  | None ->
    (* Only reachable if the gap invariant is impossible to satisfy. *)
    invalid_arg "Fw_manager: log full with no active transaction to kill"
  | Some tx ->
    terminate t tx;
    t.kills <- t.kills + 1;
    (match t.obs with
    | Some obs ->
      emit obs
        (El_obs.Event.Kill { tid = Ids.Tid.to_int tx.tid })
    | None -> ());
    (match t.on_kill with Some f -> f tx.tid | None -> ())

let seal_current t =
  match t.current with
  | None -> ()
  | Some buf ->
    t.current <- None;
    (match t.obs with
    | Some obs ->
      emit obs
        (El_obs.Event.Seal { gen = 0; slot = buf.b_slot })
    | None -> ());
    Log_channel.write
      ~payload:(fun () -> (buf.b_slot, Block.items buf.b_block))
      t.channel
      ~on_complete:(fun () ->
        let now = El_sim.Engine.now t.engine in
        List.iter (fun hook -> hook now) (List.rev buf.b_hooks);
        buf.b_hooks <- [];
        (* the buffer's slot may now be reclaimable *)
        reclaim t)

let ensure_space t =
  (* Invariant: at least [gap] free blocks after assigning one. *)
  while free_slots t < gap + 1 do
    reclaim t;
    if free_slots t < gap + 1 then kill_oldest_active t
  done

let assign_slot t =
  let s = t.tail in
  t.tail <- (s + 1) mod t.size;
  t.occupied <- t.occupied + 1;
  El_metrics.Gauge.set t.occupancy t.occupied;
  s

let current_buffer t ~size =
  (match t.current with
  | Some buf when not (Block.fits buf.b_block ~size) -> seal_current t
  | Some _ | None -> ());
  match t.current with
  | Some buf -> buf
  | None ->
    ensure_space t;
    let s = assign_slot t in
    let buf =
      { b_slot = s; b_block = Block.create ~capacity:t.block_payload; b_hooks = [] }
    in
    t.current <- Some buf;
    buf

let append t ~rec_ ~tracked_live ~hook =
  let tid = rec_.Log_record.tid in
  let size = rec_.Log_record.size in
  let buf = current_buffer t ~size in
  Block.add buf.b_block ~size rec_;
  (match t.obs with
  | Some obs ->
    emit obs
      (El_obs.Event.Append
         { gen = 0; slot = buf.b_slot; tid = Ids.Tid.to_int tid; size })
  | None -> ());
  (if tracked_live then
     match Ids.Tid.Table.find_opt t.txs tid with
     | Some tx when not tx.terminated ->
       tx.record_slots <- buf.b_slot :: tx.record_slots;
       t.live.(buf.b_slot) <- t.live.(buf.b_slot) + 1
     | Some _ | None -> ());
  match hook with
  | Some h -> buf.b_hooks <- h :: buf.b_hooks
  | None -> ()

let begin_tx t ~tid ~expected_duration:_ =
  if Ids.Tid.Table.mem t.txs tid then
    invalid_arg "Fw_manager.begin_tx: duplicate tid";
  let tx =
    {
      tid;
      begun_at = El_sim.Engine.now t.engine;
      record_slots = [];
      terminated = false;
      a_prev = None;
      a_next = None;
      a_linked = false;
    }
  in
  Ids.Tid.Table.replace t.txs tid tx;
  active_append t tx;
  El_metrics.Gauge.add t.memory bytes_per_tx;
  append t
    ~rec_:
      (Log_record.begin_ ~tid ~size:t.tx_record_size
         ~timestamp:(El_sim.Engine.now t.engine))
    ~tracked_live:true ~hook:None

let write_data t ~tid ~oid ~version ~size =
  match Ids.Tid.Table.find_opt t.txs tid with
  | None -> invalid_arg "Fw_manager.write_data: unknown transaction"
  | Some tx when tx.terminated ->
    invalid_arg "Fw_manager.write_data: transaction terminated"
  | Some _ ->
    append t
      ~rec_:
        (Log_record.data ~tid ~oid ~version ~size
           ~timestamp:(El_sim.Engine.now t.engine))
      ~tracked_live:true ~hook:None

let request_commit t ~tid ~on_ack =
  match Ids.Tid.Table.find_opt t.txs tid with
  | None -> invalid_arg "Fw_manager.request_commit: unknown transaction"
  | Some tx ->
    (* Termination first: it releases the transaction's log space (the
       firewall moves past it) and — crucially — removes it from the
       kill candidates before the append below goes hunting for room.
       The COMMIT record itself is written but, with no checkpointing
       modelled (as in the paper), never retained. *)
    terminate ~committed:true t tx;
    let requested = El_sim.Engine.now t.engine in
    append t
      ~rec_:
        (Log_record.commit ~tid ~size:t.tx_record_size ~timestamp:requested)
      ~tracked_live:false
      ~hook:
        (Some
           (fun ack_time ->
             (match t.obs with
             | None -> ()
             | Some o ->
               let latency = Time.sub ack_time requested in
               El_obs.Obs.emit o El_obs.Event.Manager
                 (El_obs.Event.Commit_ack { tid = Ids.Tid.to_int tid; latency });
               El_obs.Histogram.observe
                 (El_obs.Obs.histogram ~lowest:1000.0 ~buckets:24 o
                    "commit.latency_us")
                 (float_of_int (Time.to_us latency)));
             on_ack ack_time))

let request_abort t ~tid =
  match Ids.Tid.Table.find_opt t.txs tid with
  | None -> invalid_arg "Fw_manager.request_abort: unknown transaction"
  | Some tx ->
    terminate t tx;
    (match t.obs with
    | Some obs ->
      emit obs
        (El_obs.Event.Abort { tid = Ids.Tid.to_int tid })
    | None -> ());
    append t
      ~rec_:
        (Log_record.abort ~tid ~size:t.tx_record_size
           ~timestamp:(El_sim.Engine.now t.engine))
      ~tracked_live:false ~hook:None

let drain t = seal_current t

let occupied_blocks t = t.occupied

let slot_occupied t s =
  t.occupied = t.size || (s - t.head + t.size) mod t.size < t.occupied

let check_invariants t =
  assert (t.occupied >= 0 && t.occupied <= t.size);
  assert (t.head >= 0 && t.head < t.size);
  assert (t.tail >= 0 && t.tail < t.size);
  assert (t.tail = (t.head + t.occupied) mod t.size);
  Array.iteri
    (fun s n ->
      assert (n >= 0);
      if n > 0 then assert (slot_occupied t s))
    t.live;
  (* every slot still pinning live records is accounted for by an
     active transaction or by a committed one awaiting a checkpoint *)
  let pinned = ref 0 in
  Ids.Tid.Table.iter
    (fun tid tx ->
      assert (Ids.Tid.equal tid tx.tid);
      assert (not tx.terminated);
      List.iter
        (fun s ->
          assert (s >= 0 && s < t.size);
          assert (slot_occupied t s);
          incr pinned)
        tx.record_slots)
    t.txs;
  List.iter
    (fun s ->
      assert (s >= 0 && s < t.size);
      assert (slot_occupied t s);
      incr pinned)
    t.awaiting_checkpoint;
  assert (!pinned = Array.fold_left ( + ) 0 t.live);
  assert
    (El_metrics.Gauge.value t.memory
    = bytes_per_tx * Ids.Tid.Table.length t.txs);
  (* the active list holds exactly the table's transactions, in
     non-decreasing begun_at order *)
  let walked = ref 0 in
  let prev_at = ref None in
  let cursor = ref t.act_head in
  let last = ref None in
  while !cursor <> None do
    (match !cursor with
    | None -> ()
    | Some tx ->
      incr walked;
      assert (!walked <= Ids.Tid.Table.length t.txs);
      assert (tx.a_linked && not tx.terminated);
      assert (
        match Ids.Tid.Table.find_opt t.txs tx.tid with
        | Some tx' -> tx' == tx
        | None -> false);
      (match !prev_at with
      | Some at -> assert (not Time.(tx.begun_at < at))
      | None -> ());
      prev_at := Some tx.begun_at;
      last := Some tx;
      cursor := tx.a_next)
  done;
  assert (!walked = Ids.Tid.Table.length t.txs);
  assert (
    match (t.act_tail, !last) with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false)

type stats = {
  size_blocks : int;
  log_writes : int;
  kills : int;
  peak_occupancy : int;
  peak_memory_bytes : int;
  current_memory_bytes : int;
  live_transactions : int;
  buffer_pool_overflows : int;
  checkpoints : int;
  checkpoint_writes : int;
}

let stats t =
  {
    size_blocks = t.size;
    log_writes = Log_channel.writes_started t.channel;
    kills = t.kills;
    peak_occupancy = El_metrics.Gauge.max_value t.occupancy;
    peak_memory_bytes = El_metrics.Gauge.max_value t.memory;
    current_memory_bytes = El_metrics.Gauge.value t.memory;
    live_transactions = Ids.Tid.Table.length t.txs;
    buffer_pool_overflows = Log_channel.pool_overflows t.channel;
    checkpoints = t.checkpoints;
    checkpoint_writes = t.checkpoint_writes;
  }
