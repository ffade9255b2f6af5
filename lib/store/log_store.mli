(** The durable log: an append-only sequence of checksummed segments
    on a {!Backend}, reconstructing the simulator's in-place slot
    semantics by sequence-number dedup at scan time.

    {2 Mapping to the simulation}

    Each completed block write in the simulator becomes one appended
    segment keyed by [(epoch, gen, slot)]; a later write to the same
    slot appends a new segment with a higher [seq] rather than
    overwriting in place.  A {!scan} decodes only the newest segment
    per key, which reproduces exactly the simulator's [durable_blocks]
    view: overwritten content disappears, queued-but-unstarted writes
    were never appended, and a torn in-service write (persisted with
    [torn_suffix] corrupt entries) supersedes the slot's previous
    content with its valid prefix.

    {2 Durability contract}

    Under the default {!Immediate} sync mode, {!append_block} and
    {!append_stable} issue one [pwrite] followed by one
    {!Backend.barrier} and return only after both; callers may
    therefore ack durability immediately after an append returns.  On
    the [file] backend that is pwrite+fsync, so the ack survives
    SIGKILL.

    Under {!Manual} the barrier is decoupled from the append, and so is
    the write: an append only encodes its segment into the store's
    write buffer, behind the segments staged before it, and {!sync}
    writes the whole buffer with one [pwrite] and then barriers once.
    It is the serve loop's group commit, where drain-and-settle appends
    many segments (the sealed block plus each stable install) and one
    {!sync} before the commit ack covers them all with one pwrite and
    one fsync.  (A buffer that outgrows 1 MiB is written out, without a
    barrier, before the next append stages.)  The contract shifts
    accordingly: an append alone is {e not} durable — it has not even
    reached the backend — and an ack may only follow a completed
    {!sync}.  Callers that honour that rule keep exactly the Immediate
    crash guarantees while paying one fsync per commit instead of one
    per segment.  Whatever the mode, the bytes that reach the image,
    and their offsets, are the same.

    {2 Epochs}

    Every {!attach} starts a new epoch above any found in the image, so
    a restarted process writing to [(gen 0, slot 0)] can never shadow a
    prior incarnation's durable blocks — recovery unions committed
    state across epochs. *)

open El_model

type t

(** When the backend barrier runs relative to appends. *)
type sync_mode =
  | Immediate
      (** one pwrite and one barrier per appended segment (the
          default) *)
  | Manual
      (** appends stage in memory: only an explicit {!sync} writes
          (one [pwrite] for everything staged) and barriers *)

val create : ?sync_mode:sync_mode -> Backend.t -> t
(** Truncates the backend and starts at epoch 0, seq 0. *)

val attach : ?sync_mode:sync_mode -> Backend.t -> t
(** Adopts an existing image: scans it, truncates any torn tail, and
    resumes appending at the next epoch and sequence number. *)

val backend : t -> Backend.t
val epoch : t -> int

val sync_mode : t -> sync_mode

val dirty : t -> bool
(** Bytes have been appended since the last barrier ([Manual] only). *)

val sync : t -> unit
(** Writes any staged bytes ([Manual]) with one [pwrite], then
    barriers if dirty; a no-op on a clean store, and so always under
    [Immediate]. *)

val position : t -> int
(** The next sequence number to be assigned.  A scan bounded by
    [~upto:(position t)] sees exactly the segments appended so far
    (under [Manual], once a {!sync} has written them) — the crash-mark
    used for in-simulation store recovery. *)

val torn_keep : count:int -> float -> int
(** [torn_keep ~count f] is how many of [count] records survive a torn
    write with torn factor [f] — the single definition of the PR-5
    torn model shared by the simulator and the store. *)

val append_block :
  t -> gen:int -> slot:int -> ?torn_suffix:int -> Log_record.t list -> unit
(** Appends one log segment and barriers.  Empty record lists append
    nothing.  The last [torn_suffix] entries are written with corrupt
    checksums, persisting a torn in-service write's destroyed tail. *)

val append_stable : t -> oid:Ids.Oid.t -> version:int -> unit
(** Appends a stable-DB install fact (a [gen = -1] segment) and
    barriers. *)

(** The newest segment for one [(epoch, gen, slot)] key. *)
type block = {
  sb_epoch : int;
  sb_gen : int;
  sb_slot : int;
  sb_seq : int;
  sb_records : Log_record.t list;  (** valid prefix, in append order *)
  sb_discarded : int;  (** entries cut at the first bad checksum *)
}

type scan = {
  s_blocks : block list;  (** newest per key, ascending [seq] *)
  s_stable : int Ids.Oid.Table.t;
      (** max installed version per oid, one binding each; a fresh
          table per scan, which {!El_disk.Stable_db.of_table} may
          adopt *)
  s_segments : int;  (** segments examined (log + stable) *)
  s_stale_blocks : int;  (** log segments superseded by a newer seq *)
  s_torn_tail : bool;  (** image ended mid-segment or mid-entry *)
  s_end : int;  (** byte offset after the last complete segment *)
  s_max_epoch : int;  (** -1 when the image is empty *)
  s_max_seq : int;  (** -1 when the image is empty *)
}

val scan : ?upto:int -> Backend.t -> scan
(** Reads the whole image in one pass over its segment headers.

    {b What it verifies.}  Every header's magic and checksum, and every
    entry's checksum and tag, of every segment it counts, stale ones
    included: a segment's valid prefix ends at its first bad entry,
    and the image ends at the first bad header, at a header whose
    [count] is negative, or where the bytes run out (a torn tail).

    {b What it decodes.}  Only the newest segment per [(epoch, gen,
    slot)] becomes a {!block}; a superseded log segment is only
    remembered, as offsets, until a newer one replaces it.  Each valid
    stable install fact folds straight into [s_stable].  So a scan
    costs one checksum pass over the image plus decoding the
    survivors, and allocates nothing per entry.

    With [~upto:n], segments with [seq >= n] are passed over (only
    their headers are verified) and excluded — replaying the image as
    it stood at {!position} [= n]. *)

val attach_scan : ?sync_mode:sync_mode -> Backend.t -> t * scan
(** {!attach}, also returning the scan it made, as a rescan of the
    image after the attach would read it: a torn tail's partial last
    segment is left out and [s_torn_tail] is [false].  The new epoch
    and sequence number still count the torn segment's header, exactly
    as {!attach} does.  One pass over the image yields both the store
    and the state to recover. *)
