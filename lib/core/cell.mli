(** Cells and tracked records (§2.1–§2.3).

    A {e cell} exists in main memory for every non-garbage record in
    the log and points to the record's disk location (generation and
    block slot; block-granular, as §2.2 prescribes).  The cells of a
    generation form a circular doubly-linked list ordered from the
    record nearest the generation's head to the record nearest its
    tail; the paper's [h_i] pointer is {!Cell_list.head}.

    A {e tracked record} pairs a log record with its (optional) cell:
    the cell is [None] exactly when the record is garbage.  The
    transition from non-garbage to garbage is one-way — a disposed
    cell is never re-attached — which {!dispose} enforces.

    The [owner] field ties a cell back to the LOT or LTT entry that
    holds it, so that disposal can cascade through the tables in O(1)
    without searching (see {!Ledger}). *)

open El_model

type tracked = {
  record : Log_record.t;
  mutable cell : t option;  (** [None] once the record is garbage *)
}

and t = {
  tracked : tracked;
  mutable gen : int;  (** generation index of the record's newest copy *)
  mutable slot : int;
      (** block slot within the generation; {!staged_slot} while the
          record sits in the last generation's recirculation buffer *)
  mutable prev : t;  (** circular links; self-linked when detached *)
  mutable next : t;
  mutable linked : bool;
      (** list membership; distinguishes a detached cell from the sole
          member of a singleton list (both are self-linked) *)
  mutable owner : owner;
}

and owner =
  | Tx_of of ltt_entry  (** the entry's current tx log record *)
  | Data_of of lot_entry * Ids.Tid.t
      (** a data record for the entry's object, written by the tid *)

and lot_entry = {
  mutable l_oid : Ids.Oid.t;
      (** mutable (like every key field below) so {!Ledger} can recycle
          retired entries through a free list *)
  mutable committed : t option;
      (** cell for the most recently committed, still unflushed update *)
  mutable committed_version : int;
  mutable flush_forced : bool;
      (** a forced flush of the committed update is in flight; the
          record is pinned — carried, never evicted — until the flush
          completes and the disposal cascade clears this flag *)
  mutable uncommitted : (Ids.Tid.t * t) list;
      (** cells for uncommitted updates, newest first *)
  mutable l_free : bool;
      (** the entry sits on the ledger's free list; guards double-free *)
}

and ltt_entry = {
  mutable e_tid : Ids.Tid.t;
  mutable expected_duration : Time.t;  (** lifetime hint from the scheduler *)
  mutable begun_at : Time.t;
  mutable tx_cell : t option;  (** cell of the most recent tx record *)
  mutable write_set : unit Ids.Oid.Table.t;
      (** oids with a non-garbage data record written by this tx *)
  mutable tx_state : [ `Active | `Commit_pending | `Committed ];
  mutable act_prev : ltt_entry option;
      (** intrusive links of {!Ledger}'s begun_at-ordered active list *)
  mutable act_next : ltt_entry option;
  mutable act_linked : bool;
  mutable e_free : bool;
      (** the entry sits on the ledger's free list; guards double-free *)
}

val staged_slot : int
(** Sentinel slot (-1) for cells whose record is staged in RAM for
    recirculation and has not yet been assigned a tail block. *)

val unplaced_slot : int
(** Sentinel slot (-2) for a freshly attached cell whose record has
    not yet been appended to a log buffer — such a cell belongs to no
    generation list, and disposing it must not try to unlink it.  The
    window is tiny (within one logging call) but real: appending may
    trigger head advances that kill the very transaction doing the
    appending. *)

val track : Log_record.t -> tracked
(** A fresh tracked record, initially garbage (no cell). *)

val attach : tracked -> gen:int -> slot:int -> owner:owner -> t
(** Creates the record's cell, detached from any list.  Raises
    [Invalid_argument] if the record already has a cell. *)

val is_garbage : tracked -> bool

val detached : t -> bool
(** Whether the cell is outside any list (self-linked). *)

(** The circular doubly-linked list of one generation's cells,
    ordered head-most first. *)
module Cell_list : sig
  type cell := t
  type t

  val create : unit -> t

  val head : t -> cell option
  (** The paper's [h_i]: cell of the non-garbage record nearest the
      generation's head, or [None] when the generation holds no
      non-garbage record. *)

  val length : t -> int
  val is_empty : t -> bool

  val insert_tail : t -> cell -> unit
  (** Appends at the tail side (records entering at the generation's
      tail are the youngest).  Raises [Invalid_argument] if the cell
      is already linked into a list. *)

  val remove : t -> cell -> unit
  (** Unlinks the cell, updating the head pointer if needed.  Raises
      [Invalid_argument] if the cell is not in this list (detected via
      the detached flag; membership of the right list is the caller's
      invariant, checked in debug assertions). *)

  val to_list : t -> cell list
  (** Head-to-tail order; O(n), for tests and victim searches. *)

  val iter : (cell -> unit) -> t -> unit
  (** Applies the function to each cell, head to tail, walking the
      ring in place: it allocates nothing.  It checks the circular
      structure on the way and raises [Assert_failure] at a link that
      does not point back or when the ring and [length] disagree, so
      one walk both audits a generation's list and visits its cells. *)

  val check_invariants : t -> unit
  (** Raises [Assert_failure] if the circular structure is corrupt:
      {!iter} visiting nothing. *)
end
