open El_model

type tracked = { record : Log_record.t; mutable cell : t option }

and t = {
  tracked : tracked;
  mutable gen : int;
  mutable slot : int;
  mutable prev : t;
  mutable next : t;
  mutable linked : bool;
  mutable owner : owner;
}

and owner = Tx_of of ltt_entry | Data_of of lot_entry * Ids.Tid.t

and lot_entry = {
  (* key fields are mutable so retired entries can be recycled through
     the ledger's free list; [l_free] guards against touching an entry
     after it went back to the pool *)
  mutable l_oid : Ids.Oid.t;
  mutable committed : t option;
  mutable committed_version : int;
  mutable flush_forced : bool;
  mutable uncommitted : (Ids.Tid.t * t) list;
  mutable l_free : bool;
}

and ltt_entry = {
  mutable e_tid : Ids.Tid.t;
  mutable expected_duration : Time.t;
  mutable begun_at : Time.t;
  mutable tx_cell : t option;
  mutable write_set : unit Ids.Oid.Table.t;
  mutable tx_state : [ `Active | `Commit_pending | `Committed ];
  (* intrusive links of the ledger's begun_at-ordered active list;
     self-describing so unlinking is O(1) and idempotent *)
  mutable act_prev : ltt_entry option;
  mutable act_next : ltt_entry option;
  mutable act_linked : bool;
  mutable e_free : bool;  (* on the ledger's free list *)
}

let staged_slot = -1
let unplaced_slot = -2

let track record = { record; cell = None }

let attach tracked ~gen ~slot ~owner =
  if tracked.cell <> None then invalid_arg "Cell.attach: already has a cell";
  let rec cell =
    { tracked; gen; slot; prev = cell; next = cell; linked = false; owner }
  in
  tracked.cell <- Some cell;
  cell

let is_garbage tracked = tracked.cell = None
let detached c = not c.linked

module Cell_list = struct
  type cell = t
  type nonrec t = { mutable head : cell option; mutable length : int }

  let create () = { head = None; length = 0 }
  let head t = t.head
  let length t = t.length
  let is_empty t = t.length = 0

  let insert_tail t c =
    if c.linked then invalid_arg "Cell_list.insert_tail: cell linked";
    (match t.head with
    | None -> t.head <- Some c  (* already self-linked *)
    | Some h ->
      let tail = h.prev in
      tail.next <- c;
      c.prev <- tail;
      c.next <- h;
      h.prev <- c);
    c.linked <- true;
    t.length <- t.length + 1

  let remove t c =
    if not c.linked then invalid_arg "Cell_list.remove: cell not linked";
    (match t.head with
    | None -> invalid_arg "Cell_list.remove: empty list"
    | Some h ->
      if h == c then
        if c.next == c then t.head <- None else t.head <- Some c.next);
    c.prev.next <- c.next;
    c.next.prev <- c.prev;
    c.prev <- c;
    c.next <- c;
    c.linked <- false;
    t.length <- t.length - 1

  let to_list t =
    match t.head with
    | None -> []
    | Some h ->
      let rec walk c acc =
        if c == h then List.rev acc else walk c.next (c :: acc)
      in
      h :: walk h.next []

  (* Bounded by [length] and checking each link as it passes, so a
     corrupt ring raises instead of looping. *)
  let iter f t =
    match t.head with
    | None -> assert (t.length = 0)
    | Some h ->
      let rec walk c n =
        assert (n <= t.length);
        assert (c.next.prev == c);
        assert (c.prev.next == c);
        f c;
        if c.next == h then assert (n = t.length) else walk c.next (n + 1)
      in
      walk h 1

  let check_invariants t = iter ignore t
end
