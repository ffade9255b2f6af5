(** A fixed-capacity disk block (or the in-memory buffer that will
    become one).

    Blocks hold typed items, each with a byte size; the log manager
    instantiates ['a] with its tracked-record type.  Following §2.2,
    records never span blocks: an item only fits if its whole size
    fits in the remaining payload space. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] is the usable payload in bytes (2000 in the paper).
    Raises [Invalid_argument] if non-positive. *)

val capacity : 'a t -> int
val used : 'a t -> int
val free : 'a t -> int
val is_empty : 'a t -> bool

val fits : 'a t -> size:int -> bool
(** Whether an item of [size] bytes would fit.  Raises
    [Invalid_argument] on a non-positive size. *)

val add : 'a t -> size:int -> 'a -> unit
(** Appends an item.  Raises [Invalid_argument] if it does not fit —
    callers must check {!fits} first, as the log manager's group
    commit logic does. *)

val items : 'a t -> 'a list
(** Items in insertion order. *)

val memq : 'a -> 'a t -> bool
(** Whether the block holds this very item (physical equality), tested
    on the block's own items in place: O(count), allocating nothing,
    where a search of {!items} copies the block first. *)

val count : 'a t -> int

val iter : ('a -> unit) -> 'a t -> unit
(** Iterates in insertion order. *)

val clear : 'a t -> unit
(** Empties the block, modelling its overwrite on disk. *)
