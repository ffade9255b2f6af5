(** A block-storage backend: the minimal device interface both the
    simulated-memory store and a real disk image satisfy (the FSCQ
    [read_disk]/[write_disk] shape).

    Three operations — positional write, positional read, and a write
    barrier — are enough for an append-only checksummed log.  The
    {!mem} backend keeps the bytes in a growable in-process buffer and
    its barrier is a no-op: process memory {e is} the platter of the
    simulation, so a completed [pwrite] is already "durable" in the
    sense the simulated clock assigns to a completed block write.  The
    {!file} backend does positional I/O on a real file descriptor and
    its barrier is [fsync], so a completed barrier survives a SIGKILL
    (and, on a real disk with write caching disabled, a power cut).

    Both backends count their operations identically, so a run's
    pwrite/barrier totals identify the I/O the store performed no
    matter which backend absorbed it. *)

type t

(** Operation tap, for observability counters. *)
type op =
  | Pwrite of int  (** bytes written *)
  | Pread of int  (** bytes read *)
  | Barrier

type counters = {
  mutable pwrites : int;
  mutable preads : int;
  mutable barriers : int;
  mutable bytes_written : int;
  mutable seeks : int;
      (** [lseek]s a {!file} backend issued (always 0 on {!mem}): a
          positional op seeks only when the descriptor does not
          already stand at its offset *)
}

val mem : unit -> t
(** A fresh in-memory backend (name ["mem"]). *)

val file : path:string -> t
(** Opens (or creates) [path] read-write without truncating (name
    ["file"]).  Raises [Unix.Unix_error] on failure. *)

val name : t -> string
(** ["mem"] or ["file"] — the backend identity recorded in results,
    bench sections and the serve [stat] line. *)

val path : t -> string option
(** The image path, for {!file} backends. *)

val pwrite : t -> off:int -> len:int -> bytes -> unit
(** Writes the buffer's first [len] bytes at byte offset [off],
    extending the store as needed — the segment writer hands over a
    prefix of its reused scratch buffer this way, without copying.  On
    {!file}, a write that continues where the previous op left the
    descriptor issues no [lseek] (each append after an {!truncate} or
    the append before it).  Raises [Invalid_argument] on a negative
    offset, a [len] outside the buffer, or a closed backend. *)

val pread : t -> off:int -> bytes -> pos:int -> len:int -> int
(** Reads up to [len] bytes at [off] into the buffer at [pos] and
    returns how many it read: fewer when the store ends first.  A read
    that continues where the previous op left a {!file} descriptor
    issues no [lseek], so a sequential scan reads through one reused
    buffer with no seek at all. *)

val barrier : t -> unit
(** Write barrier: on {!file}, [fsync]; on {!mem}, a counted no-op
    (see the module preamble for why that is the honest mapping). *)

val size : t -> int

val truncate : t -> len:int -> unit
(** Shrinks the store to [len] bytes (a longer store is left as it is)
    — [len:0] resets a fresh image; an attach truncates away a torn
    tail before appending over it — and leaves a {!file} descriptor
    at [len], where the next append continues without a seek. *)

val close : t -> unit
(** Closes a {!file} backend's descriptor (idempotent); frees a
    {!mem} backend's buffer. *)

val counters : t -> counters

val set_tap : t -> (op -> unit) option -> unit
(** Installs (or clears) an observer called after every counted
    operation — the hook the experiment harness uses to mirror the
    counters into {!El_obs} metrics. *)

(** {2 Crash injection inside the write path}

    A write fault models a power cut in the middle of a [pwrite]: a
    byte prefix of the torn write reaches the platter and the device
    is dead from that instant on — later pwrites, barriers and
    truncates are silently lost (the process issuing them no longer
    has a disk), while reads and [size] keep working so a test can
    examine the surviving image post mortem.  Because the segment
    store issues exactly one [pwrite] per segment, tearing a pwrite
    tears a {e segment} — the valid prefix can end inside the header
    or between entries, not merely at a whole-segment boundary. *)

val set_write_fault :
  ?on_tear:(unit -> unit) -> t -> after_pwrites:int -> keep_bytes:int -> unit
(** Arms the fault: the next [after_pwrites] pwrites complete
    normally, then the following one persists only its first
    [keep_bytes] bytes (clamped to the write length) and kills the
    device.  [on_tear] fires once, after the prefix has landed — the
    test hook that captures the simulation state at the tear
    instant.  Counters record only bytes that actually landed. *)

val dead : t -> bool
(** True once an armed fault has fired. *)

val revive : t -> unit
(** Clears {!dead} — the reboot, after which the image can be
    re-attached and written again. *)
