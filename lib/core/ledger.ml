open El_model

type t = {
  lot : Cell.lot_entry Ids.Oid.Table.t;
  ltt : Cell.ltt_entry Ids.Tid.Table.t;
  remove_cell : Cell.t -> unit;
  memory : El_metrics.Gauge.t;
  mutable unflushed : int;
  mutable live : int;  (* non-garbage cells reachable from the tables *)
  (* Active transactions as an intrusive doubly-linked list, kept
     begun_at-ordered so the firewall victim — the oldest active
     transaction — is always the head, making [oldest_active] O(1)
     instead of a full LTT fold.  Engine begin timestamps are monotone
     clock readings, so insertion is an O(1) tail append in practice;
     a sorted-position walk from the tail keeps direct out-of-order
     API use correct. *)
  mutable act_head : Cell.ltt_entry option;
  mutable act_tail : Cell.ltt_entry option;
  (* Retired table entries are recycled through free lists so the
     steady-state transaction churn allocates nothing: each LTT entry
     keeps its write-set hash table (reset, not rebuilt) and each LOT
     entry its record.  The [l_free]/[e_free] flags guard against an
     entry being pushed twice or touched while pooled. *)
  pooled : bool;
  mutable lot_spare : Cell.lot_entry list;
  mutable ltt_spare : Cell.ltt_entry list;
}

let bytes_per_tx = Params.el_bytes_per_tx
let bytes_per_object = Params.el_bytes_per_object

let create ~remove_cell ?(pooled = true) () =
  {
    lot = Ids.Oid.Table.create 1024;
    ltt = Ids.Tid.Table.create 1024;
    remove_cell;
    memory = El_metrics.Gauge.create ~name:"LOT+LTT bytes" ();
    unflushed = 0;
    live = 0;
    act_head = None;
    act_tail = None;
    pooled;
    lot_spare = [];
    ltt_spare = [];
  }

(* ---- the active list ---- *)

let active_append t (e : Cell.ltt_entry) =
  assert (not e.act_linked);
  e.act_linked <- true;
  (* Walk back from the tail to the last entry begun no later than
     [e]; ties keep the earlier insertion ahead.  Monotone engine
     timestamps make this walk zero steps. *)
  let rec find_pred = function
    | None -> None
    | Some (p : Cell.ltt_entry) ->
      if Time.(p.begun_at <= e.begun_at) then Some p else find_pred p.act_prev
  in
  match find_pred t.act_tail with
  | None ->
    e.act_prev <- None;
    e.act_next <- t.act_head;
    (match t.act_head with
    | Some h -> h.Cell.act_prev <- Some e
    | None -> t.act_tail <- Some e);
    t.act_head <- Some e
  | Some p ->
    e.act_prev <- Some p;
    e.act_next <- p.act_next;
    (match p.act_next with
    | Some n -> n.Cell.act_prev <- Some e
    | None -> t.act_tail <- Some e);
    p.act_next <- Some e

(* Idempotent: entries leave the list when they stop being [`Active]
   (commit request, abort, kill) and again when they are disposed. *)
let active_unlink t (e : Cell.ltt_entry) =
  if e.act_linked then begin
    (match e.act_prev with
    | Some p -> p.Cell.act_next <- e.act_next
    | None -> t.act_head <- e.act_next);
    (match e.act_next with
    | Some n -> n.Cell.act_prev <- e.act_prev
    | None -> t.act_tail <- e.act_prev);
    e.act_prev <- None;
    e.act_next <- None;
    e.act_linked <- false
  end

let find_tx t tid = Ids.Tid.Table.find_opt t.ltt tid

let is_active t tid =
  match find_tx t tid with
  | Some e -> e.Cell.tx_state = `Active
  | None -> false

let require_tx t tid =
  match find_tx t tid with
  | Some e -> e
  | None -> invalid_arg "Ledger: unknown transaction"

let lot_size t = Ids.Oid.Table.length t.lot
let ltt_size t = Ids.Tid.Table.length t.ltt

(* ---- memory accounting ---- *)

let mem_add_tx t = El_metrics.Gauge.add t.memory bytes_per_tx
let mem_del_tx t = El_metrics.Gauge.add t.memory (-bytes_per_tx)
let mem_add_obj t = El_metrics.Gauge.add t.memory bytes_per_object
let mem_del_obj t = El_metrics.Gauge.add t.memory (-bytes_per_object)

let memory_bytes t = El_metrics.Gauge.value t.memory
let peak_memory_bytes t = El_metrics.Gauge.max_value t.memory
let unflushed_objects t = t.unflushed

(* ---- disposal cascade ---- *)

let lot_entry_cleanup t (entry : Cell.lot_entry) =
  if entry.committed = None && entry.uncommitted = [] then begin
    Ids.Oid.Table.remove t.lot entry.l_oid;
    mem_del_obj t;
    if t.pooled then begin
      assert (not entry.l_free);
      entry.l_free <- true;
      entry.flush_forced <- false;
      t.lot_spare <- entry :: t.lot_spare
    end
  end

let dispose_tx_cell t (e : Cell.ltt_entry) =
  (match e.tx_cell with
  | Some c ->
    t.remove_cell c;
    c.Cell.tracked.Cell.cell <- None;
    e.tx_cell <- None;
    t.live <- t.live - 1
  | None -> ());
  active_unlink t e;
  Ids.Tid.Table.remove t.ltt e.e_tid;
  mem_del_tx t;
  if t.pooled then begin
    assert (not e.e_free);
    e.e_free <- true;
    (* Keep the write-set table (reset preserves its bucket array), so
       a recycled entry's first writes re-populate without resizing. *)
    Ids.Oid.Table.reset e.write_set;
    t.ltt_spare <- e :: t.ltt_spare
  end

(* Dispose a data cell: detach from list and LOT entry, remove the oid
   from the writer's write set, and — per §2.3 — retire a committed
   writer whose write set has drained. *)
let rec dispose_data_cell t cell (entry : Cell.lot_entry) tid =
  (* Capture before the cleanup below may recycle the entry. *)
  let oid = entry.l_oid in
  t.remove_cell cell;
  cell.Cell.tracked.Cell.cell <- None;
  t.live <- t.live - 1;
  (match entry.committed with
  | Some c when c == cell ->
    entry.committed <- None;
    entry.flush_forced <- false;
    t.unflushed <- t.unflushed - 1
  | Some _ | None ->
    entry.uncommitted <-
      List.filter (fun (_, c) -> not (c == cell)) entry.uncommitted);
  lot_entry_cleanup t entry;
  match find_tx t tid with
  | None -> ()  (* writer already fully retired *)
  | Some e ->
    Ids.Oid.Table.remove e.write_set oid;
    if e.tx_state = `Committed && Ids.Oid.Table.length e.write_set = 0 then
      dispose_tx_cell t e

and dispose t (cell : Cell.t) =
  match cell.Cell.owner with
  | Cell.Tx_of e ->
    (* Disposing a tx record cell by force: only sound when the entry
       is being retired wholesale; callers use abort/kill for that.
       Here it means "evict": drop the anchor and the entry. *)
    (match e.tx_cell with
    | Some c when c == cell -> dispose_tx_cell t e
    | Some _ | None -> ())
  | Cell.Data_of (entry, tid) -> dispose_data_cell t cell entry tid

(* ---- transaction lifecycle ---- *)

let begin_tx t ~tid ~expected_duration ~timestamp ~size =
  if Ids.Tid.Table.mem t.ltt tid then
    invalid_arg "Ledger.begin_tx: duplicate tid";
  let record = Log_record.begin_ ~tid ~size ~timestamp in
  let tracked = Cell.track record in
  let entry =
    match t.ltt_spare with
    | e :: rest ->
      t.ltt_spare <- rest;
      assert (e.Cell.e_free);
      e.Cell.e_tid <- tid;
      e.expected_duration <- expected_duration;
      e.begun_at <- timestamp;
      e.tx_cell <- None;
      (* write_set was reset at recycle time *)
      e.tx_state <- `Active;
      e.act_prev <- None;
      e.act_next <- None;
      e.act_linked <- false;
      e.e_free <- false;
      e
    | [] ->
      {
        Cell.e_tid = tid;
        expected_duration;
        begun_at = timestamp;
        tx_cell = None;
        write_set = Ids.Oid.Table.create 8;
        tx_state = `Active;
        act_prev = None;
        act_next = None;
        act_linked = false;
        e_free = false;
      }
  in
  let cell =
    Cell.attach tracked ~gen:0 ~slot:Cell.unplaced_slot ~owner:(Cell.Tx_of entry)
  in
  entry.tx_cell <- Some cell;
  Ids.Tid.Table.replace t.ltt tid entry;
  active_append t entry;
  t.live <- t.live + 1;
  mem_add_tx t;
  cell

let find_lot t oid =
  match Ids.Oid.Table.find_opt t.lot oid with
  | Some e -> e
  | None ->
    let e =
      match t.lot_spare with
      | e :: rest ->
        t.lot_spare <- rest;
        assert (e.Cell.l_free);
        e.Cell.l_oid <- oid;
        e.committed <- None;
        e.committed_version <- 0;
        e.flush_forced <- false;
        e.uncommitted <- [];
        e.l_free <- false;
        e
      | [] ->
        {
          Cell.l_oid = oid;
          committed = None;
          committed_version = 0;
          flush_forced = false;
          uncommitted = [];
          l_free = false;
        }
    in
    Ids.Oid.Table.replace t.lot oid e;
    mem_add_obj t;
    e

let write_data t ~tid ~oid ~version ~size ~timestamp =
  let e = require_tx t tid in
  if e.Cell.tx_state <> `Active then
    invalid_arg "Ledger.write_data: transaction not active";
  let entry = find_lot t oid in
  (* An earlier uncommitted update by the same transaction is
     superseded immediately (REDO logging keeps only newest values). *)
  let previous =
    List.find_opt (fun (i, _) -> Ids.Tid.equal i tid) entry.uncommitted
  in
  (match previous with
  | Some (_, old_cell) -> dispose_data_cell t old_cell entry tid
  | None -> ());
  (* Disposing the old update may have retired the whole LOT entry;
     re-resolve so the new cell lands in a live entry. *)
  let entry = find_lot t oid in
  let record = Log_record.data ~tid ~oid ~version ~size ~timestamp in
  let tracked = Cell.track record in
  let cell =
    Cell.attach tracked ~gen:0 ~slot:Cell.unplaced_slot
      ~owner:(Cell.Data_of (entry, tid))
  in
  entry.uncommitted <- (tid, cell) :: entry.uncommitted;
  Ids.Oid.Table.replace e.write_set oid ();
  t.live <- t.live + 1;
  cell

let supersede_tx_record t (e : Cell.ltt_entry) cell =
  (match e.Cell.tx_cell with
  | Some old ->
    t.remove_cell old;
    old.Cell.tracked.Cell.cell <- None;
    t.live <- t.live - 1
  | None -> ());
  e.tx_cell <- Some cell;
  t.live <- t.live + 1

let request_commit t ~tid ~timestamp ~size =
  let e = require_tx t tid in
  if e.Cell.tx_state <> `Active then
    invalid_arg "Ledger.request_commit: transaction not active";
  e.tx_state <- `Commit_pending;
  active_unlink t e;
  let record = Log_record.commit ~tid ~size ~timestamp in
  let tracked = Cell.track record in
  let cell =
    Cell.attach tracked ~gen:0 ~slot:Cell.unplaced_slot ~owner:(Cell.Tx_of e)
  in
  supersede_tx_record t e cell;
  cell

let commit_durable t ~tid =
  let e = require_tx t tid in
  if e.Cell.tx_state <> `Commit_pending then
    invalid_arg "Ledger.commit_durable: no commit in flight";
  e.tx_state <- `Committed;
  let to_flush = ref [] in
  let oids = Ids.Oid.Table.fold (fun oid () acc -> oid :: acc) e.write_set [] in
  List.iter
    (fun oid ->
      match Ids.Oid.Table.find_opt t.lot oid with
      | None -> assert false  (* write set implies a LOT entry *)
      | Some entry ->
        (match
           List.find_opt (fun (i, _) -> Ids.Tid.equal i tid) entry.uncommitted
         with
        | None -> assert false
        | Some (_, cell) ->
          (* The earlier committed update, if any, is now garbage. *)
          (match entry.committed with
          | Some old ->
            let old_tid =
              match old.Cell.owner with
              | Cell.Data_of (_, writer) -> writer
              | Cell.Tx_of _ -> assert false
            in
            dispose_data_cell t old entry old_tid
          | None -> ());
          entry.uncommitted <-
            List.filter (fun (i, _) -> not (Ids.Tid.equal i tid)) entry.uncommitted;
          entry.committed <- Some cell;
          t.unflushed <- t.unflushed + 1;
          (match cell.Cell.tracked.Cell.record.Log_record.kind with
          | Log_record.Data { version; _ } ->
            entry.committed_version <- version;
            to_flush := (oid, version) :: !to_flush
          | Log_record.Begin | Log_record.Commit | Log_record.Abort ->
            assert false)))
    oids;
  if Ids.Oid.Table.length e.write_set = 0 then dispose_tx_cell t e;
  !to_flush

let drop_all_records t (e : Cell.ltt_entry) =
  let oids = Ids.Oid.Table.fold (fun oid () acc -> oid :: acc) e.write_set [] in
  List.iter
    (fun oid ->
      match Ids.Oid.Table.find_opt t.lot oid with
      | None -> ()
      | Some entry -> (
        match
          List.find_opt (fun (i, _) -> Ids.Tid.equal i e.e_tid) entry.uncommitted
        with
        | Some (_, cell) -> dispose_data_cell t cell entry e.e_tid
        | None -> ()))
    oids;
  (* dispose_data_cell already pruned the write set; whatever remains
     (nothing, normally) is cleared before the entry goes away. *)
  Ids.Oid.Table.reset e.write_set;
  dispose_tx_cell t e

let request_abort t ~tid ~timestamp ~size =
  let e = require_tx t tid in
  if e.Cell.tx_state <> `Active then
    invalid_arg "Ledger.request_abort: transaction not active";
  drop_all_records t e;
  Cell.track (Log_record.abort ~tid ~size ~timestamp)

let kill t ~tid =
  let e = require_tx t tid in
  if e.Cell.tx_state <> `Active then
    invalid_arg "Ledger.kill: only active transactions can be killed";
  drop_all_records t e

let committed_cell t oid =
  match Ids.Oid.Table.find_opt t.lot oid with
  | None -> None
  | Some entry -> (
    match entry.Cell.committed with
    | Some cell -> Some (cell, entry.committed_version)
    | None -> None)

let tx_state t tid =
  match find_tx t tid with
  | Some e -> Some e.Cell.tx_state
  | None -> None

let flush_complete t ~oid ~version =
  match Ids.Oid.Table.find_opt t.lot oid with
  | None -> false
  | Some entry -> (
    match entry.committed with
    | Some cell when entry.committed_version = version ->
      let tid =
        match cell.Cell.owner with
        | Cell.Data_of (_, writer) -> writer
        | Cell.Tx_of _ -> assert false
      in
      dispose_data_cell t cell entry tid;
      true
    | Some _ | None -> false)

type survivor_class =
  | Keep_active
  | Committed_data of Ids.Oid.t * int
  | Committed_tx of Ids.Tid.t
  | Flush_pinned

let classify _t (cell : Cell.t) =
  match cell.Cell.owner with
  | Cell.Tx_of e -> (
    match e.Cell.tx_state with
    | `Active | `Commit_pending -> Keep_active
    | `Committed -> Committed_tx e.e_tid)
  | Cell.Data_of (entry, _) -> (
    match entry.committed with
    | Some c when c == cell ->
      if entry.flush_forced then Flush_pinned
      else Committed_data (entry.l_oid, entry.committed_version)
    | Some _ | None -> Keep_active)

(* Pin the committed update: a forced flush has been requested, so the
   record must remain durable in the log until the completion path
   ([flush_complete]) disposes it.  Disposing it earlier — the pre-fix
   behaviour — left the acked version durable nowhere while the
   transfer was in flight. *)
let pin_flush _t (cell : Cell.t) =
  match cell.Cell.owner with
  | Cell.Data_of (entry, _) -> (
    match entry.Cell.committed with
    | Some c when c == cell -> entry.Cell.flush_forced <- true
    | Some _ | None -> invalid_arg "Ledger.pin_flush: not the committed update")
  | Cell.Tx_of _ -> invalid_arg "Ledger.pin_flush: tx record"

let writer_tid (cell : Cell.t) =
  match cell.Cell.owner with
  | Cell.Tx_of e -> e.Cell.e_tid
  | Cell.Data_of (_, tid) -> tid

(* O(1): the head of the begun_at-ordered active list.  Replaces a
   full LTT fold that made every firewall victim search O(|LTT|). *)
let oldest_active t = t.act_head

(* O(1): counter maintained at every cell attach/dispose, and
   recounted by [check_invariants]. *)
let live_cells t = t.live

let owns (c : Cell.t) =
  match c.Cell.tracked.Cell.cell with Some c' -> c' == c | None -> false

(* One pass over the LOT, one over the LTT and one walk of the active
   list, allocating nothing per entry: the passes recount the live
   cells and the unflushed updates and find the oldest active begin
   time, which the incremental counters and the active list's head
   must match. *)
let check_invariants t =
  let live = ref 0 and unflushed = ref 0 in
  let rec uncommitted oid = function
    | [] -> ()
    | (tid, c) :: rest ->
      incr live;
      assert (owns c);
      (match Ids.Tid.Table.find t.ltt tid with
      | (e : Cell.ltt_entry) ->
        assert (e.tx_state <> `Committed);
        assert (Ids.Oid.Table.mem e.write_set oid)
      | exception Not_found -> assert false);
      uncommitted oid rest
  in
  Ids.Oid.Table.iter
    (fun oid (entry : Cell.lot_entry) ->
      assert (Ids.Oid.equal oid entry.l_oid);
      assert (not entry.l_free);
      (match (entry.committed, entry.uncommitted) with
      | None, [] -> assert false
      | None, _ :: _ ->
        (* a pin without a committed update would never be cleared *)
        assert (not entry.flush_forced)
      | Some c, _ ->
        incr unflushed;
        incr live;
        assert (owns c));
      uncommitted oid entry.uncommitted)
    t.lot;
  assert (!unflushed = t.unflushed);
  let actives = ref 0 and oldest = ref Time.zero in
  Ids.Tid.Table.iter
    (fun tid (e : Cell.ltt_entry) ->
      assert (Ids.Tid.equal tid e.e_tid);
      assert (not e.e_free);
      (match e.tx_cell with
      | Some c ->
        incr live;
        assert (owns c)
      | None -> assert false (* live entries always anchor a tx record *));
      match e.tx_state with
      | `Active ->
        assert e.act_linked;
        if !actives = 0 || Time.(e.begun_at < !oldest) then
          oldest := e.begun_at;
        incr actives
      | `Commit_pending -> assert (not e.act_linked)
      | `Committed ->
        assert (not e.act_linked);
        assert (Ids.Oid.Table.length e.write_set > 0))
    t.ltt;
  assert (
    memory_bytes t
    = (bytes_per_tx * ltt_size t) + (bytes_per_object * lot_size t));
  assert (t.live = !live);
  (* The active list holds exactly the active entries, in begun_at
     order; [prev] is the option the previous step stood on. *)
  let rec walk prev cursor n =
    match cursor with
    | None ->
      assert (n = !actives);
      assert (
        match (t.act_tail, prev) with
        | None, None -> true
        | Some tl, Some tl' -> tl == tl'
        | _ -> false)
    | Some (e : Cell.ltt_entry) ->
      assert (n < !actives);
      assert (e.act_linked && e.tx_state = `Active);
      assert (
        match Ids.Tid.Table.find t.ltt e.e_tid with
        | e' -> e' == e
        | exception Not_found -> false);
      assert (
        match (e.act_prev, prev) with
        | None, None -> true
        | Some p, Some p' -> p == p' && not Time.(e.begun_at < p.Cell.begun_at)
        | _ -> false);
      walk cursor e.act_next (n + 1)
  in
  walk None t.act_head 0;
  (* Begin times tie only within one engine instant; any entry of the
     earliest is then a legitimate head. *)
  (match t.act_head with
  | Some h -> assert (Time.equal h.Cell.begun_at !oldest)
  | None -> ());
  (* Pooled entries really are retired: flagged, and (for LTT) with a
     drained write set. *)
  List.iter (fun (e : Cell.lot_entry) -> assert e.l_free) t.lot_spare;
  List.iter
    (fun (e : Cell.ltt_entry) ->
      assert e.e_free;
      assert (Ids.Oid.Table.length e.write_set = 0))
    t.ltt_spare
