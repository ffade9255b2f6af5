(** The trace-event taxonomy: one typed constructor per interesting
    transition in the simulated system, stamped with the simulated
    time at which it happened and the subsystem that emitted it.

    The taxonomy mirrors the paper's dynamics: records entering log
    tails ([Append]), heads advancing and deciding each survivor's
    fate ([Head_advance], [Forward], [Recirculate], [Stage_write],
    [Regenerate]), the kill/evict pressure valves, group-commit
    acknowledgements, log-channel block writes, and the flush array's
    request/start/done lifecycle whose backlog drives §4's
    negative-feedback argument. *)

open El_model

type subsystem = Manager | Channel | Disk | Recovery | Harness

val subsystem_name : subsystem -> string
val all_subsystems : subsystem list

val subsystem_index : subsystem -> int
(** A stable small integer per subsystem — the Chrome-trace "thread"
    id under which the exporter files the event. *)

type kind =
  | Append of { gen : int; slot : int; tid : int; size : int }
      (** a record entered the tail buffer of generation/queue [gen] *)
  | Seal of { gen : int; slot : int }
      (** a partially-filled buffer was closed and sent to disk *)
  | Head_advance of { gen : int; slot : int; survivors : int }
  | Forward of { from_gen : int; to_gen : int; records : int }
  | Recirculate of { gen : int; records : int }
      (** survivors moved into the last generation's staging buffer *)
  | Stage_write of { gen : int; records : int }
      (** the staging buffer was written back at the tail *)
  | Regenerate of { queue : int; records : int }
      (** hybrid manager: a transaction's records rewritten from RAM *)
  | Kill of { tid : int }
  | Evict of { target : int; committed_tx : bool }
      (** a committed record force-flushed out of the log; [target] is
          the oid, or the tid when a whole committed transaction's
          write set was drained ([committed_tx]) *)
  | Commit_ack of { tid : int; latency : Time.t }
      (** group commit reached disk; [latency] is request-to-ack *)
  | Abort of { tid : int }
  | Checkpoint of { blocks : int }  (** FW checkpoint of [blocks] cost *)
  | Log_write_start of { gen : int }
  | Log_write_done of { gen : int }
  | Flush_request of { oid : int; forced : bool }
  | Flush_start of { drive : int; oid : int }
  | Flush_done of { drive : int; oid : int; distance : int }
      (** [distance] is the oid seek distance from the drive's previous
          position, 0 for a drive's first flush *)
  | Io_retry of { device : string; attempts : int }
      (** transient I/O failures absorbed by the retry policy *)
  | Io_remap of { device : string }
      (** a bad sector forced a remap onto a spare *)
  | Shed of { tid : int; backlog : int }
      (** degraded mode shed an arriving transaction under fault storm *)
  | Contention of { tid : int; oid : int; attempt : int }
      (** a skewed oid draw hit another active writer: the drawing
          transaction aborted ([attempt] of its retry chain) *)
  | Retry of { tid : int; attempt : int }
      (** a contention-aborted transaction relaunched after backoff *)
  | Mark of string  (** free-form harness annotation *)

type t = { at : Time.t; sub : subsystem; kind : kind }

val name : kind -> string
(** Stable kebab-case name, used as the Chrome-trace event name and
    as the grouping key in the JSON summary. *)

val args : kind -> (string * Jsonx.t) list
(** The payload fields, as Chrome-trace [args]. *)

val pp : Format.formatter -> t -> unit
