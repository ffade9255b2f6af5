open El_model
module Log_channel = El_disk.Log_channel
module Flush_array = El_disk.Flush_array
module Stable_db = El_disk.Stable_db

(* Remembered records live packed in an {!Arena.seg} — six unboxed
   ints per record — instead of a boxed stub list.  A 20k-update
   transaction is then one flat buffer the GC never scans, where the
   list representation retained ~26 heap words per record and made
   every major collection walk the whole live set.  The [flushed] flag
   (data records only) rides in the packed tag word. *)

type tx_state = Active | Commit_pending | Committed

type tx = {
  tid : Ids.Tid.t;
  begun_at : Time.t;
  mutable state : tx_state;
  seg : Arena.seg;  (* every record of the transaction, oldest first *)
  mutable anchor : (int * int) option;  (* queue index, slot *)
  (* intrusive links of the slot's anchored list (newest first);
     meaningful only while [anchor] is [Some _] *)
  mutable anc_prev : tx option;
  mutable anc_next : tx option;
  mutable unflushed_count : int;
}

(* An open (or sealed, unwritten) block does not copy its records: it
   references them where they already live — the writing transactions'
   segments — as (segment, start, count) spans, pinning each
   referenced segment until the block's disk write completes.
   Consecutive appends from the same transaction extend the last span
   in place, so a burst of writes costs no span bookkeeping beyond a
   counter bump.  Records with no backing segment (abort records: the
   transaction retires before its abort is logged) go into a lazily
   allocated block-local segment. *)
type buffer = {
  mutable b_slot : int;
  mutable b_segs : Arena.seg array;  (* span sources, first [b_n] in use *)
  mutable b_start : int array;
  mutable b_count : int array;
  mutable b_n : int;
  mutable b_local : Arena.seg option;  (* backing for spanless records *)
  mutable b_used : int;  (* payload bytes consumed *)
  mutable b_hooks : (Time.t -> unit) list;
}

type queue = {
  q_index : int;
  q_size : int;
  q_last : bool;
  anchors : int array;  (* anchored-transaction count per slot *)
  anchored : tx option array;
      (* head (newest) of each slot's intrusive anchored list; a head
         pointer plus the links in [tx] make both anchoring and
         {!drop_anchor} O(1), where the former [tx list] array paid an
         O(anchored-per-slot) rebuild on every unanchor *)
  mutable q_head : int;
  mutable q_tail : int;
  mutable q_occupied : int;
  q_channel : Log_channel.t;
  mutable q_current : buffer option;
  mutable q_spare : buffer list;
      (* completed blocks' bookkeeping (span arrays and all) recycled
         for the next seal, so steady-state sealing allocates only its
         closures *)
}

type t = {
  engine : El_sim.Engine.t;
  flush : Flush_array.t;
  stable : Stable_db.t;
  arena : Arena.t;
  queues : queue array;
  txs : tx Ids.Tid.Table.t;
  mutable memo : tx option;
      (* last transaction served by {!require_tx}: the generators and
         benches burst many writes per transaction, so one pointer
         saves a hashtable probe per record.  Invalidated on retire. *)
  unflushed : (Ids.Tid.t * int) Ids.Oid.Table.t;
      (* committed-unflushed objects: writer and version *)
  memory : El_metrics.Gauge.t;
  mutable regenerations : int;
  mutable regenerated_records : int;
  mutable kills : int;
  mutable locals_live : int;  (* block-local segments not yet released *)
  mutable on_kill : (Ids.Tid.t -> unit) option;
  obs : El_obs.Obs.t option;
}

let gap = Params.head_tail_gap
let bytes_per_tx = Params.fw_bytes_per_tx
let bytes_per_object = Params.el_bytes_per_object

(* Each call site matches [t.obs] itself and builds its event only
   under [Some]: an event passed to a helper that matched would be
   allocated with observation off too. *)
let emit o kind = El_obs.Obs.emit o El_obs.Event.Manager kind

(* Mark every not-yet-flushed packed data record matching
   (oid, version); returns how many were marked. *)
let mark_flushed_matching seg ~oid ~version =
  let n = ref 0 in
  let len = Arena.length seg in
  for i = 0 to len - 1 do
    if
      Arena.is_data seg i
      && Arena.oid seg i = oid
      && Arena.version seg i = version
      && not (Arena.flushed seg i)
    then begin
      Arena.set_flushed seg i;
      incr n
    end
  done;
  !n

let drop_anchor t tx =
  match tx.anchor with
  | None -> ()
  | Some (qi, slot) ->
    let q = t.queues.(qi) in
    q.anchors.(slot) <- q.anchors.(slot) - 1;
    (match tx.anc_prev with
    | Some p -> p.anc_next <- tx.anc_next
    | None -> q.anchored.(slot) <- tx.anc_next);
    (match tx.anc_next with
    | Some n -> n.anc_prev <- tx.anc_prev
    | None -> ());
    tx.anc_prev <- None;
    tx.anc_next <- None;
    tx.anchor <- None

(* Newest-first snapshot of a slot's anchored list, safe to iterate
   while anchors move. *)
let anchored_snapshot q slot =
  let rec walk acc = function
    | None -> List.rev acc
    | Some tx -> walk (tx :: acc) tx.anc_next
  in
  walk [] q.anchored.(slot)

let retire t tx =
  drop_anchor t tx;
  (match t.memo with
  | Some m when m == tx -> t.memo <- None
  | Some _ | None -> ());
  Ids.Tid.Table.remove t.txs tx.tid;
  El_metrics.Gauge.add t.memory (-bytes_per_tx);
  (* The packed records go back to the arena pool; the table removal
     above makes the transaction unreachable from every completion
     path first, so no late hook can alias the recycled buffer. *)
  Arena.release tx.seg

let create engine ~queue_sizes ~flush ~stable ?(pooled = true) ?obs ?fault
    ?store () =
  if Array.length queue_sizes = 0 then
    invalid_arg "Hybrid_manager.create: no queues";
  Array.iter
    (fun s ->
      if s < gap + 2 then
        invalid_arg "Hybrid_manager.create: queue needs at least gap+2 blocks")
    queue_sizes;
  let n = Array.length queue_sizes in
  let make_queue i =
    {
      q_index = i;
      q_size = queue_sizes.(i);
      q_last = i = n - 1;
      anchors = Array.make queue_sizes.(i) 0;
      anchored = Array.make queue_sizes.(i) None;
      q_head = 0;
      q_tail = 0;
      q_occupied = 0;
      q_channel =
        Log_channel.create engine ~write_time:Params.tau_disk_write
          ~buffer_pool:Params.buffers_per_generation ?obs ~label:i
          ?fault:
            (Option.map (fun inj -> El_fault.Injector.log_gen inj i) fault)
          ?store ();
      q_current = None;
      q_spare = [];
    }
  in
  let t =
    {
      engine;
      flush;
      stable;
      arena = Arena.create ~pooled ();
      queues = Array.init n make_queue;
      txs = Ids.Tid.Table.create 1024;
      memo = None;
      unflushed = Ids.Oid.Table.create 1024;
      memory = El_metrics.Gauge.create ~name:"hybrid memory" ();
      regenerations = 0;
      regenerated_records = 0;
      kills = 0;
      locals_live = 0;
      on_kill = None;
      obs;
    }
  in
  Flush_array.set_on_flush flush (fun oid ~version ->
      Stable_db.apply stable oid ~version;
      match Ids.Oid.Table.find_opt t.unflushed oid with
      | Some (tid, v) when v = version -> (
        Ids.Oid.Table.remove t.unflushed oid;
        El_metrics.Gauge.add t.memory (-bytes_per_object);
        match Ids.Tid.Table.find_opt t.txs tid with
        | None -> ()
        | Some tx ->
          let marked =
            mark_flushed_matching tx.seg ~oid:(Ids.Oid.to_int oid) ~version
          in
          tx.unflushed_count <- tx.unflushed_count - marked;
          if tx.state = Committed && tx.unflushed_count = 0 then retire t tx)
      | Some _ | None -> ());
  t

let set_on_kill t f = t.on_kill <- Some f
let free_slots q = q.q_size - q.q_occupied

(* Reference one packed record in the open block: extend the last
   span when it is the next record of the same segment, otherwise
   open (and pin) a new span. *)
let span_add buf seg idx =
  let n = buf.b_n in
  if
    n > 0
    && Array.unsafe_get buf.b_segs (n - 1) == seg
    && Array.unsafe_get buf.b_start (n - 1)
       + Array.unsafe_get buf.b_count (n - 1)
       = idx
  then
    Array.unsafe_set buf.b_count (n - 1)
      (Array.unsafe_get buf.b_count (n - 1) + 1)
  else begin
    if n = Array.length buf.b_segs then begin
      let cap = if n = 0 then 4 else n * 2 in
      let segs = Array.make cap seg in
      let start = Array.make cap 0 in
      let count = Array.make cap 0 in
      Array.blit buf.b_segs 0 segs 0 n;
      Array.blit buf.b_start 0 start 0 n;
      Array.blit buf.b_count 0 count 0 n;
      buf.b_segs <- segs;
      buf.b_start <- start;
      buf.b_count <- count
    end;
    Arena.pin seg;
    buf.b_segs.(n) <- seg;
    buf.b_start.(n) <- idx;
    buf.b_count.(n) <- 1;
    buf.b_n <- n + 1
  end

(* Materialize the block's records, oldest first, reading through the
   spans.  Pins guarantee the segments are still readable even when
   their transactions have retired since sealing. *)
let buffer_records buf =
  let acc = ref [] in
  for s = buf.b_n - 1 downto 0 do
    let seg = Array.unsafe_get buf.b_segs s in
    let st = Array.unsafe_get buf.b_start s in
    for i = st + Array.unsafe_get buf.b_count s - 1 downto st do
      acc := Arena.record_at seg i :: !acc
    done
  done;
  !acc

let seal_current t q =
  match q.q_current with
  | None -> ()
  | Some buf ->
    q.q_current <- None;
    (match t.obs with
    | None -> ()
    | Some o ->
      El_obs.Obs.emit o El_obs.Event.Manager
        (El_obs.Event.Seal { gen = q.q_index; slot = buf.b_slot }));
    Log_channel.write
      (* materializes boxed records only when a store pulls them for
         serialization; a store-less run never calls the thunk *)
      ~payload:(fun () -> (buf.b_slot, buffer_records buf))
      q.q_channel
      ~on_complete:(fun () ->
        let now = El_sim.Engine.now t.engine in
        List.iter (fun h -> h now) (List.rev buf.b_hooks);
        buf.b_hooks <- [];
        for s = 0 to buf.b_n - 1 do
          Arena.unpin (Array.unsafe_get buf.b_segs s)
        done;
        buf.b_n <- 0;
        (match buf.b_local with
        | Some l ->
          Arena.release l;
          t.locals_live <- t.locals_live - 1;
          buf.b_local <- None
        | None -> ());
        q.q_spare <- buf :: q.q_spare)

let anchor_at t tx q slot =
  (match tx.anchor with
  | Some _ -> drop_anchor t tx
  | None -> ());
  tx.anchor <- Some (q.q_index, slot);
  q.anchors.(slot) <- q.anchors.(slot) + 1;
  tx.anc_next <- q.anchored.(slot);
  (match q.anchored.(slot) with
  | Some h -> h.anc_prev <- Some tx
  | None -> ());
  q.anchored.(slot) <- Some tx

(* ---- space management with regeneration ---- *)

(* Raised (and handled internally) when a self-recirculating
   regeneration finds the last queue completely full. *)
exception Regeneration_full

(* Where an appended record's bytes live.  [From_seg] spans the
   record where the transaction already packed it; [Raw_abort] is the
   one record with no backing segment — the transaction retires
   before its abort is logged — and goes into the block-local
   segment. *)
type src = From_seg of Arena.seg * int | Raw_abort of { rtid : int; ts : int }

let rec assign_slot _t q =
  if free_slots q = 0 then
    raise
      (El_manager.Log_overloaded
         (Printf.sprintf "hybrid queue %d: no free block" q.q_index));
  let s = q.q_tail in
  q.q_tail <- (s + 1) mod q.q_size;
  q.q_occupied <- q.q_occupied + 1;
  s

(* Append one packed record at the tail of [q]; anchors the
   transaction there when [anchor] is set (first record of a batch).
   In [self_regen] mode — the last queue rewriting into itself — no
   head advance may be triggered (it would re-enter the advance in
   progress), so a full ring raises {!Regeneration_full} and the
   caller kills or retires the transaction instead. *)
and append ?(self_regen = false) t q ~size ~src ~anchor_tx ~hook =
  if size > Params.block_payload then
    raise (El_manager.Log_overloaded "record exceeds block payload");
  (match q.q_current with
  | Some buf when size > Params.block_payload - buf.b_used -> seal_current t q
  | Some _ | None -> ());
  (match q.q_current with
  | Some _ -> ()
  | None ->
    if self_regen then begin
      if free_slots q = 0 then raise Regeneration_full
    end
    else ensure_space t q;
    let s = assign_slot t q in
    q.q_current <-
      (match q.q_spare with
      | buf :: rest ->
        q.q_spare <- rest;
        buf.b_slot <- s;
        buf.b_used <- 0;
        Some buf
      | [] ->
        Some
          {
            b_slot = s;
            b_segs = [||];
            b_start = [||];
            b_count = [||];
            b_n = 0;
            b_local = None;
            b_used = 0;
            b_hooks = [];
          }));
  match (q.q_current, anchor_tx) with
  | None, _ -> assert false
  | Some _, Some ({ anchor = None; _ } as tx)
    when not (Ids.Tid.Table.mem t.txs tx.tid) ->
    (* the space hunt above killed the very transaction being appended
       for (retiring drops the anchor, so an anchored one is alive):
       its records are garbage now, and its segment may already be
       recycled, so the record is dropped *)
    ()
  | Some buf, _ ->
    (match src with
    | From_seg (seg, idx) -> span_add buf seg idx
    | Raw_abort { rtid; ts } ->
      let l =
        match buf.b_local with
        | Some l -> l
        | None ->
          let l = Arena.alloc t.arena in
          t.locals_live <- t.locals_live + 1;
          buf.b_local <- Some l;
          l
      in
      Arena.push l ~tag:Arena.tag_abort ~tid:rtid ~oid:(-1) ~version:0 ~size
        ~ts;
      span_add buf l (Arena.length l - 1));
    buf.b_used <- buf.b_used + size;
    (match t.obs with
    | None -> ()
    | Some o ->
      El_obs.Obs.emit o El_obs.Event.Manager
        (El_obs.Event.Append
           {
             gen = q.q_index;
             slot = buf.b_slot;
             tid =
               (match anchor_tx with
               | Some tx -> Ids.Tid.to_int tx.tid
               | None -> -1);
             size;
           }));
    (match anchor_tx with
    | Some ({ anchor = None; _ } as tx) -> anchor_at t tx q buf.b_slot
    | Some _ | None -> ());
    (match hook with
    | Some h -> buf.b_hooks <- h :: buf.b_hooks
    | None -> ())

(* Advance the head one block.  Every transaction anchored there is
   unhooked and its retained records are rewritten at the tail of the
   next queue (§6: the manager has no pointers to the rest, so whole
   transactions are regenerated).  The slot is freed *before* the
   rewrites so that the appends — which may need space of their own,
   re-entering this function — always operate on a consistent ring. *)
and advance_head t q =
  if q.q_occupied = 0 then
    raise
      (El_manager.Log_overloaded
         (Printf.sprintf "hybrid queue %d: empty but space demanded" q.q_index));
  let s = q.q_head in
  (match q.q_current with
  | Some buf when buf.b_slot = s -> seal_current t q
  | Some _ | None -> ());
  let victims = anchored_snapshot q s in
  (match t.obs with
  | None -> ()
  | Some o ->
    El_obs.Obs.emit o El_obs.Event.Manager
      (El_obs.Event.Head_advance
         { gen = q.q_index; slot = s; survivors = List.length victims }));
  List.iter (fun tx -> drop_anchor t tx) victims;
  assert (q.anchors.(s) = 0);
  q.q_head <- (s + 1) mod q.q_size;
  q.q_occupied <- q.q_occupied - 1;
  let destination =
    t.queues.(min (q.q_index + 1) (Array.length t.queues - 1))
  in
  let self_regen = destination == q in
  List.iter
    (fun tx ->
      (* the transaction may have retired or been re-anchored by the
         recursive pressure of an earlier victim's rewrite *)
      if
        (match tx.anchor with None -> true | Some _ -> false)
        && Ids.Tid.Table.mem t.txs tx.tid
      then begin
        let seg = tx.seg in
        let n = Arena.length seg in
        let state = tx.state in
        (* which packed records survive: everything for a live
           transaction, the unflushed remainder for a committed one *)
        let retained i =
          match state with
          | Active | Commit_pending -> true
          | Committed ->
            (not (Arena.is_data seg i)) || not (Arena.flushed seg i)
        in
        let retained_count = ref 0 in
        for i = 0 to n - 1 do
          if retained i then incr retained_count
        done;
        t.regenerations <- t.regenerations + 1;
        let regen_before = t.regenerated_records in
        let note_regenerated () =
          if t.regenerated_records > regen_before then
            (match t.obs with
            | Some obs ->
              emit obs
                (El_obs.Event.Regenerate
                   {
                     queue = destination.q_index;
                     records = t.regenerated_records - regen_before;
                   })
            | None -> ())
        in
        try
          for i = 0 to n - 1 do
            (* the recursive pressure of an earlier append may have
               killed this very transaction; its remaining records are
               garbage (and its segment recycled) and must not be read
               or rewritten *)
            if Ids.Tid.Table.mem t.txs tx.tid && retained i then begin
              t.regenerated_records <- t.regenerated_records + 1;
              append ~self_regen t destination ~size:(Arena.size seg i)
                ~src:(From_seg (seg, i)) ~anchor_tx:(Some tx) ~hook:None
            end
          done;
          note_regenerated ();
          (* a committed transaction with nothing retained retires *)
          if !retained_count = 0 then retire t tx
        with Regeneration_full -> (
          note_regenerated ();
          (* The paper's rule: a record that cannot be recirculated for
             lack of space costs its transaction its life — but only an
             active transaction can actually be killed. *)
          match tx.state with
          | Active -> kill_tx t tx
          | Committed | Commit_pending ->
            (* A committing transaction can not be killed: reneging on
               a commit the client may already have been acked for (or
               is about to be) is not an option.  Its log records are
               sacrificed to the squeeze and it lives on in main memory
               alone — unanchored but in the table — until its commit
               hook hands the updates to the flusher and the last flush
               completion retires it. *)
            ())
      end)
    victims

and ensure_space t q =
  let target = gap + 1 in
  let budget = ref ((2 * q.q_size) + 4) in
  while free_slots q < target do
    advance_head t q;
    decr budget;
    if !budget <= 0 && free_slots q < target then begin
      kill_someone t q;
      budget := (2 * q.q_size) + 4
    end
  done

and kill_someone t q =
  (* The last queue regenerates into itself; when that makes no
     progress, kill the oldest active anchored transaction. *)
  let oldest = ref None in
  Array.iter
    (fun head ->
      let cursor = ref head in
      while !cursor <> None do
        (match !cursor with
        | None -> ()
        | Some tx ->
          (if tx.state = Active then
             match !oldest with
             | None -> oldest := Some tx
             | Some b ->
               if Time.(tx.begun_at < b.begun_at) then oldest := Some tx);
          cursor := tx.anc_next)
      done)
    q.anchored;
  match !oldest with
  | Some tx -> kill_tx t tx
  | None ->
    raise
      (El_manager.Log_overloaded
         (Printf.sprintf "hybrid queue %d: nothing killable" q.q_index))

and kill_tx t tx =
  (* all records become garbage; unflushed bookkeeping is dropped *)
  let seg = tx.seg in
  let n = Arena.length seg in
  for i = 0 to n - 1 do
    if Arena.is_data seg i && not (Arena.flushed seg i) then begin
      let oid = Ids.Oid.of_int (Arena.oid seg i) in
      match Ids.Oid.Table.find_opt t.unflushed oid with
      | Some (tid, _) when Ids.Tid.equal tid tx.tid ->
        Ids.Oid.Table.remove t.unflushed oid;
        El_metrics.Gauge.add t.memory (-bytes_per_object)
      | Some _ | None -> ()
    end
  done;
  retire t tx;
  t.kills <- t.kills + 1;
  (match t.obs with
  | Some obs ->
    emit obs
      (El_obs.Event.Kill { tid = Ids.Tid.to_int tx.tid })
  | None -> ());
  match t.on_kill with Some f -> f tx.tid | None -> ()

(* ---- logging interface ---- *)

let require_tx t tid =
  match t.memo with
  | Some tx when Ids.Tid.to_int tx.tid = Ids.Tid.to_int tid -> tx
  | Some _ | None -> (
    match Ids.Tid.Table.find_opt t.txs tid with
    | Some tx ->
      t.memo <- Some tx;
      tx
    | None -> invalid_arg "Hybrid_manager: unknown transaction")

let begin_tx t ~tid ~expected_duration:_ =
  if Ids.Tid.Table.mem t.txs tid then
    invalid_arg "Hybrid_manager.begin_tx: duplicate tid";
  let now = El_sim.Engine.now t.engine in
  let ts = Time.to_us now in
  let rtid = Ids.Tid.to_int tid in
  let seg = Arena.alloc t.arena in
  Arena.push seg ~tag:Arena.tag_begin ~tid:rtid ~oid:(-1) ~version:0
    ~size:Params.tx_record_size ~ts;
  let tx =
    {
      tid;
      begun_at = now;
      state = Active;
      seg;
      anchor = None;
      anc_prev = None;
      anc_next = None;
      unflushed_count = 0;
    }
  in
  Ids.Tid.Table.replace t.txs tid tx;
  El_metrics.Gauge.add t.memory bytes_per_tx;
  append t t.queues.(0) ~size:Params.tx_record_size ~src:(From_seg (seg, 0))
    ~anchor_tx:(Some tx) ~hook:None

let write_data t ~tid ~oid ~version ~size =
  let tx = require_tx t tid in
  (match tx.state with
  | Active -> ()
  | Commit_pending | Committed ->
    invalid_arg "Hybrid_manager.write_data: transaction not active");
  if size <= 0 then invalid_arg "Log_record: non-positive size";
  if version < 0 then invalid_arg "Log_record.data: negative version";
  let o = Ids.Oid.to_int oid in
  let rtid = Ids.Tid.to_int tid in
  let ts = Time.to_us (El_sim.Engine.now t.engine) in
  let seg = tx.seg in
  Arena.push seg ~tag:Arena.tag_data ~tid:rtid ~oid:o ~version ~size ~ts;
  let idx = Arena.length seg - 1 in
  let q = Array.unsafe_get t.queues 0 in
  (* Fast path for the common shape — room in the open block, the
     transaction already anchored, nobody observing: just extend the
     block's span over the record pushed above.  Anything else takes
     the full append (seal, space hunt, anchoring, events). *)
  match q.q_current with
  | Some buf
    when size <= Params.block_payload - buf.b_used
         && (match tx.anchor with Some _ -> true | None -> false)
         && match t.obs with None -> true | Some _ -> false ->
    span_add buf seg idx;
    buf.b_used <- buf.b_used + size
  | Some _ | None ->
    append t q ~size ~src:(From_seg (seg, idx)) ~anchor_tx:(Some tx)
      ~hook:None

let request_commit t ~tid ~on_ack =
  let tx = require_tx t tid in
  if tx.state <> Active then
    invalid_arg "Hybrid_manager.request_commit: transaction not active";
  tx.state <- Commit_pending;
  let requested = El_sim.Engine.now t.engine in
  let ts = Time.to_us requested in
  let rtid = Ids.Tid.to_int tid in
  Arena.push tx.seg ~tag:Arena.tag_commit ~tid:rtid ~oid:(-1) ~version:0
    ~size:Params.tx_record_size ~ts;
  let commit_idx = Arena.length tx.seg - 1 in
  let hook at =
    if Ids.Tid.Table.mem t.txs tid then begin
      tx.state <- Committed;
      (match t.obs with
      | None -> ()
      | Some o ->
        let latency = Time.sub at requested in
        El_obs.Obs.emit o El_obs.Event.Manager
          (El_obs.Event.Commit_ack { tid = Ids.Tid.to_int tid; latency });
        El_obs.Histogram.observe
          (El_obs.Obs.histogram ~lowest:1000.0 ~buckets:24 o
             "commit.latency_us")
          (float_of_int (Time.to_us latency)));
      (* hand every update to the flusher; supersede older committed
         versions of the same objects *)
      let seg = tx.seg in
      let n = Arena.length seg in
      for i = 0 to n - 1 do
        if Arena.is_data seg i then begin
          let o = Arena.oid seg i in
          let version = Arena.version seg i in
          let oid = Ids.Oid.of_int o in
          (match Ids.Oid.Table.find_opt t.unflushed oid with
          | Some (old_tid, old_version) -> (
            Ids.Oid.Table.remove t.unflushed oid;
            El_metrics.Gauge.add t.memory (-bytes_per_object);
            match Ids.Tid.Table.find_opt t.txs old_tid with
            | Some old_tx when not (Ids.Tid.equal old_tid tid) ->
              let marked =
                mark_flushed_matching old_tx.seg ~oid:o ~version:old_version
              in
              old_tx.unflushed_count <- old_tx.unflushed_count - marked;
              if old_tx.state = Committed && old_tx.unflushed_count = 0 then
                retire t old_tx
            | Some self ->
              (* the transaction superseded its own earlier version
                 (a re-update of a held object under skewed drawing):
                 unhook the older record, no retirement check — the
                 newer version is re-added just below *)
              let marked =
                mark_flushed_matching self.seg ~oid:o ~version:old_version
              in
              self.unflushed_count <- self.unflushed_count - marked
            | None -> ())
          | None -> ());
          Ids.Oid.Table.replace t.unflushed oid (tid, version);
          El_metrics.Gauge.add t.memory bytes_per_object;
          tx.unflushed_count <- tx.unflushed_count + 1;
          Flush_array.request t.flush oid ~version
        end
      done;
      if tx.unflushed_count = 0 then retire t tx;
      (* only a commit that actually took effect is acknowledged *)
      on_ack at
    end
  in
  append t t.queues.(0) ~size:Params.tx_record_size
    ~src:(From_seg (tx.seg, commit_idx)) ~anchor_tx:(Some tx)
    ~hook:(Some hook)

let request_abort t ~tid =
  let tx = require_tx t tid in
  if tx.state <> Active then
    invalid_arg "Hybrid_manager.request_abort: transaction not active";
  (* retire first so the space hunt below cannot pick this transaction
     as a kill victim after the generator already marked it aborted *)
  retire t tx;
  (match t.obs with
  | Some obs -> emit obs (El_obs.Event.Abort { tid = Ids.Tid.to_int tid })
  | None -> ());
  append t t.queues.(0) ~size:Params.tx_record_size
    ~src:
      (Raw_abort
         {
           rtid = Ids.Tid.to_int tid;
           ts = Time.to_us (El_sim.Engine.now t.engine);
         })
    ~anchor_tx:None ~hook:None

let drain t = Array.iter (fun q -> seal_current t q) t.queues

let occupied_blocks t = Array.map (fun q -> q.q_occupied) t.queues

let slot_occupied q s =
  q.q_occupied = q.q_size
  || (s - q.q_head + q.q_size) mod q.q_size < q.q_occupied

(* Walks a slot's anchored list once, in place, and returns its length:
   each member claims this slot, is the live table's transaction for
   its tid and is linked both ways.  Bounded by the slot's count, so a
   cyclic list raises instead of looping. *)
let rec anchored_members t q s prev cursor n =
  match cursor with
  | None -> n
  | Some tx ->
    assert (n < q.anchors.(s));
    (match tx.anchor with
    | Some (qi, slot) -> assert (qi = q.q_index && slot = s)
    | None -> assert false);
    assert (
      match Ids.Tid.Table.find t.txs tx.tid with
      | tx' -> tx' == tx
      | exception Not_found -> false);
    assert (
      match (tx.anc_prev, prev) with
      | None, None -> true
      | Some p, Some p' -> p == p'
      | _ -> false);
    anchored_members t q s cursor tx.anc_next (n + 1)

(* One walk of each slot's anchored list and one pass over the table,
   allocating nothing per element.  The members walked are distinct
   live transactions claiming their list's slot, as many as are
   anchored, so each anchored one is listed where it claims.  Each
   pending update of a committed transaction is the unflushed entry of
   its object, and they number the table's size, so it holds no other. *)
let check_invariants t =
  let members = ref 0 in
  Array.iter
    (fun q ->
      assert (q.q_occupied >= 0 && q.q_occupied <= q.q_size);
      assert (q.q_head >= 0 && q.q_head < q.q_size);
      assert (q.q_tail >= 0 && q.q_tail < q.q_size);
      assert (q.q_tail = (q.q_head + q.q_occupied) mod q.q_size);
      for s = 0 to q.q_size - 1 do
        let n = anchored_members t q s None q.anchored.(s) 0 in
        assert (q.anchors.(s) = n);
        if n > 0 then assert (slot_occupied q s);
        members := !members + n
      done)
    t.queues;
  let anchored = ref 0 and unflushed_total = ref 0 in
  Ids.Tid.Table.iter
    (fun tid tx ->
      assert (Ids.Tid.equal tid tx.tid);
      assert (Arena.live tx.seg);
      (match tx.anchor with
      | None ->
        (* only a committing transaction squeezed out of the last
           queue lives unanchored: its commit record rides to
           durability and, once the hook hands its updates to the
           flusher, it waits out the flushes in memory alone (see
           advance_head); an unanchored *active* transaction would be
           a leak *)
        assert (tx.state <> Active)
      | Some (qi, slot) ->
        assert (qi >= 0 && qi < Array.length t.queues);
        assert (slot >= 0 && slot < t.queues.(qi).q_size);
        incr anchored);
      assert (tx.unflushed_count >= 0);
      (match tx.state with
      | Active | Commit_pending -> assert (tx.unflushed_count = 0)
      | Committed ->
        (* a committed transaction with nothing left to flush retires *)
        assert (tx.unflushed_count > 0);
        let pending = ref 0 in
        let seg = tx.seg in
        for i = 0 to Arena.length seg - 1 do
          if Arena.is_data seg i && not (Arena.flushed seg i) then begin
            incr pending;
            let oid = Ids.Oid.of_int (Arena.oid seg i) in
            match Ids.Oid.Table.find t.unflushed oid with
            | w, v -> assert (Ids.Tid.equal w tid && v = Arena.version seg i)
            | exception Not_found -> assert false
          end
        done;
        assert (tx.unflushed_count = !pending));
      unflushed_total := !unflushed_total + tx.unflushed_count)
    t.txs;
  assert (!anchored = !members);
  assert (!unflushed_total = Ids.Oid.Table.length t.unflushed);
  (* pooling bookkeeping: blocks reference transaction segments by
     span, so the only live segments are one per live transaction
     plus the block-local segments (abort records) whose blocks have
     not completed *)
  let live_segs = (Arena.stats t.arena).Arena.outstanding in
  assert (t.locals_live >= 0);
  assert (live_segs = Ids.Tid.Table.length t.txs + t.locals_live);
  assert
    (El_metrics.Gauge.value t.memory
    = (bytes_per_tx * Ids.Tid.Table.length t.txs)
      + (bytes_per_object * Ids.Oid.Table.length t.unflushed))

type stats = {
  queue_sizes : int array;
  log_writes_per_queue : int array;
  total_log_writes : int;
  regenerations : int;
  regenerated_records : int;
  kills : int;
  peak_memory_bytes : int;
  current_memory_bytes : int;
  live_transactions : int;
  unflushed_objects : int;
}

let stats t =
  let per_queue =
    Array.map (fun q -> Log_channel.writes_started q.q_channel) t.queues
  in
  {
    queue_sizes = Array.map (fun q -> q.q_size) t.queues;
    log_writes_per_queue = per_queue;
    total_log_writes = Array.fold_left ( + ) 0 per_queue;
    regenerations = t.regenerations;
    regenerated_records = t.regenerated_records;
    kills = t.kills;
    peak_memory_bytes = El_metrics.Gauge.max_value t.memory;
    current_memory_bytes = El_metrics.Gauge.value t.memory;
    live_transactions = Ids.Tid.Table.length t.txs;
    unflushed_objects = Ids.Oid.Table.length t.unflushed;
  }
