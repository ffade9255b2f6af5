(** The array of disk drives holding the stable database version, to
    which committed updates are flushed (§3).

    Objects are range-partitioned evenly over [drives] drives; each
    drive serves at most one request at a time, each taking a fixed
    [transfer_time].  A drive picks its next request to minimise the
    wrapped oid distance from the object it last wrote — the paper's
    access-time proxy — and the mean of those distances is the
    flush-locality statistic reported in §4 (≈250k/4 of a 10⁶-object
    partition when requests are sparse, dropping as a backlog builds
    and the negative-feedback effect improves locality).

    Requests are keyed by oid: re-requesting an oid that is still
    pending replaces the pending version (a newer committed update
    supersedes the older one before it was flushed). *)

open El_model

type t

(** Drive scheduling discipline: the paper's shortest-wrapped-distance
    policy, or plain FIFO as an ablation baseline (no locality
    feedback). *)
type scheduling = Nearest | Fifo

val create :
  El_sim.Engine.t ->
  drives:int ->
  transfer_time:Time.t ->
  num_objects:int ->
  ?scheduling:scheduling ->
  ?obs:El_obs.Obs.t ->
  ?fault:El_fault.Injector.t ->
  ?store:El_store.Log_store.t ->
  unit ->
  t
(** Raises [Invalid_argument] unless [drives > 0],
    [num_objects mod drives = 0] (the paper ignores the ragged case)
    and [transfer_time > Time.zero].  [scheduling] defaults to
    [Nearest].  Each drive keeps its backlog in a bitset index by oid
    (and, under [Fifo], a map by arrival seq), so a pick never scans
    the backlog.  The pick order: forced requests first, then the
    discipline's key, equal keys to the earlier arrival.  With [obs],
    the request/start/done lifecycle of every flush is traced, seek
    distances feed the ["flush.oid_distance"] histogram and every
    scheduling decision bumps the ["flush.picks"] counter.  With
    [fault], each drive [i] resolves every transfer against the plan's
    [Flush_drive i] schedule: retries and latency windows stretch the
    transfer, remaps burn spares.  Torn verdicts are inert here — the
    stable version only changes at transfer completion, so an
    interrupted transfer leaves the old consistent image.  With
    [store], each completed transfer appends a durable stable-install
    fact ({!El_store.Log_store.append_stable}) {e before} the
    {!set_on_flush} hook lets the log record become garbage. *)

val set_on_flush : t -> (Ids.Oid.t -> version:int -> unit) -> unit
(** Installs the completion callback (the log manager's "record is now
    garbage" transition).  Must be called before the first request. *)

val add_flush_observer : t -> (Ids.Oid.t -> version:int -> unit) -> unit
(** Registers a passive completion observer, called after the owner's
    {!set_on_flush} callback, in registration order.  Observers are
    instrumentation — the spec oracle's flush-completion feed — and
    must not mutate the manager.  Like {!set_on_flush}, register
    before the first request. *)

val request : t -> Ids.Oid.t -> version:int -> unit
(** Asks for [oid]'s committed update to be written to the stable
    version.  If a request for the same oid is already pending it is
    superseded in place (only the newest committed version needs to
    reach disk).  Raises [Invalid_argument] if the oid is out of
    range. *)

val request_forced : t -> Ids.Oid.t -> version:int -> unit
(** A forced flush: served before locality-scheduled requests.  Models
    the naive policy in which a committed update reaching the head of
    a generation must be written out immediately, causing random I/O
    (§2.2).  Counted separately in {!forced_flushes}. *)

val pending : t -> int
(** Requests accepted but not yet completed (the flush backlog). *)

val peak_backlog : t -> int
val flushes_completed : t -> int
val forced_flushes : t -> int
val superseded : t -> int
(** Requests replaced in place before being serviced. *)

val mean_distance : t -> float
(** Mean wrapped oid distance between successively flushed objects on
    the same drive (§4's locality metric). *)

val distance_stat : t -> El_metrics.Running_stat.t

val max_rate_per_sec : t -> float
(** The array's aggregate service capacity, drives / transfer_time. *)

val check_invariants : t -> unit
(** Cross-checks the elevator indexes against the pending table: every
    pending request appears in exactly one class index, under both the
    by-oid and by-seq keys. *)
