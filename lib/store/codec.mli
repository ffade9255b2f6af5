(** On-image wire format for the durable log.

    A store image is a sequence of {e segments}.  Each segment is a
    52-byte header followed by [count] fixed-size 49-byte entries:

    {v
    header  := "ELSG" epoch gen slot seq count cksum      (52 bytes)
    entry   := tag tid oid version size timestamp cksum   (49 bytes)
    v}

    All integers are little-endian int64.  Both checksums are FNV-1a-64
    over the preceding bytes of their struct, so a torn tail — a
    partial header or a partially written entry — is detected at the
    first bad checksum and everything after it is discarded, mirroring
    the simulator's per-record torn-write model.

    The format is stated once, by the in-place readers: each reads one
    field of the struct at an offset, or verifies its checksum, without
    copying bytes or boxing a result.  {!decode_header} and
    {!decode_entry} are those readers assembled into values; a store
    scan uses the readers directly, so it can verify every struct of an
    image and decode only the few that survive. *)

type entry =
  | Record of El_model.Log_record.t
  | Stable of { oid : El_model.Ids.Oid.t; version : int }
      (** A stable-DB install fact, persisted by the flush array when a
          transfer completes.  Lives in segments with [gen = -1]. *)

val entry_bytes : int
(** 49 *)

val header_bytes : int
(** 52 *)

type header = {
  h_epoch : int;  (** attach generation — bumps on every [attach] *)
  h_gen : int;  (** log generation, or [-1] for stable segments *)
  h_slot : int;
  h_seq : int;  (** global append sequence number, strictly increasing *)
  h_count : int;  (** entries following the header *)
}

val encode_entry_into : ?corrupt:bool -> Bytes.t -> pos:int -> entry -> unit
(** Encodes the entry in place at [pos] — the store's segment writer
    packs a whole segment into one reused scratch buffer this way, so
    steady-state appends allocate nothing.  [corrupt] flips a checksum
    bit — used by tests and by torn-suffix persistence to write a
    deliberately invalid entry. *)

val encode_entry : ?corrupt:bool -> entry -> Bytes.t
(** Fresh-buffer convenience over {!encode_entry_into}. *)

val decode_entry : Bytes.t -> pos:int -> entry option
(** [None] unless {!entry_valid}; raises [Invalid_argument] if fewer
    than {!entry_bytes} bytes remain. *)

val encode_header_into : Bytes.t -> pos:int -> header -> unit

val encode_header : header -> Bytes.t

val decode_header : Bytes.t -> pos:int -> header option
(** [None] unless {!header_valid}; raises [Invalid_argument] if fewer
    than {!header_bytes} bytes remain. *)

(** {2 In-place readers}

    Each reads the struct at [pos] in the buffer and allocates nothing.
    They trust [pos] to start a struct with its whole length in the
    buffer, and raise [Invalid_argument] only if a byte they read is
    out of bounds. *)

val header_valid : Bytes.t -> pos:int -> bool
(** The header's magic is ["ELSG"] and its checksum holds. *)

val header_epoch : Bytes.t -> pos:int -> int
val header_gen : Bytes.t -> pos:int -> int
val header_slot : Bytes.t -> pos:int -> int
val header_seq : Bytes.t -> pos:int -> int

val header_count : Bytes.t -> pos:int -> int
(** As stored: only the writer's headers are known to be
    non-negative. *)

val entry_valid : Bytes.t -> pos:int -> bool
(** The entry's checksum holds and its tag names an entry kind. *)

val entry_is_stable : Bytes.t -> pos:int -> bool
(** The entry's tag is a stable install fact's. *)

val entry_oid : Bytes.t -> pos:int -> int
val entry_version : Bytes.t -> pos:int -> int

val entry_at : Bytes.t -> pos:int -> entry
(** Decodes an entry already found {!entry_valid}, without checking its
    checksum again.  Raises [Invalid_argument] on an unknown tag, or a
    negative tid or oid where the entry kind carries one. *)
