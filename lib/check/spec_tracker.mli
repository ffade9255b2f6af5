(** The one witness of what a crash must keep: drives the
    {!El_spec.Durable_log} state machine from a live run and checks the
    implementation against it.  The managers keep no second model of
    the durable-log contract: a recovered crash image is judged here
    ({!judge}), and the installs into an EL plant's stable database
    are judged here as they land ({!watch_stable}).

    The tracker interposes on the workload sink — every
    begin/write/commit-request/ack/abort becomes a spec step — and the
    manager's kills arrive through {!kill}.  Flush completions arrive
    through {!observe_flush}, registered on the run's
    {!El_disk.Flush_array} with [add_flush_observer].  {!prepare}
    wires all of it into a plant.  An illegal step (one the
    durable-log contract forbids: a duplicate begin, a write or commit
    outside the running phase, an ack without a commit request, ...)
    is recorded as a violation, not raised.  The explicit checks raise
    {!Auditor.Audit_failure}: the spec's own ({!check_invariant},
    {!check_settled}) with a ["spec:"]-prefixed message, the settled
    comparison against the plant ({!check_settled_stable}) with an
    ["oracle:"]-prefixed one, and the install judge ({!check_installs})
    with the ["el:"] prefix the auditor gives what it finds in an EL
    manager.  The crash judge returns a {!verdict} with one printer. *)

open El_model

type t

val create : unit -> t
(** A tracker at the spec's initial state. *)

val of_spec : El_spec.Durable_log.t -> t
(** A tracker at this spec state that watches no stable database, for
    judging hand-built crash images against any reachable state. *)

val wrap : t -> El_workload.Generator.sink -> El_workload.Generator.sink
(** Interposes the tracker between generator and manager: every call
    is stepped through the spec, then forwarded. *)

val kill : t -> Ids.Tid.t -> unit
(** The manager killed a transaction (a [Kill] step). *)

val observe_flush : t -> Ids.Oid.t -> version:int -> unit
(** A database-drive flush completed.  In this implementation the
    stable database serves the version from the same completion, so
    this steps both [Flush_complete] and [Superblock_advance]. *)

val watch_stable : t -> El_disk.Stable_db.t -> unit
(** Watches an EL plant's live stable database: every install into it,
    whoever makes it (a flush completion or a direct
    {!El_disk.Stable_db.apply}), is judged as it lands — the stable
    database may lag the acked state but never lead it, and never hold
    an object nobody committed — and marks its object for the next
    {!judge}'s floor check.  Call it before the run installs anything.
    Raises [Invalid_argument] on a second call. *)

val prepare :
  ?on_cross:(El_shard.Shard_group.cross -> unit) ->
  El_harness.Experiment.config ->
  El_shard.Shard_group.t * t array
(** Builds the config's plant as every sweep and crash run does: the
    shard group ({!El_shard.Shard_group.prepare}, so a solo config is
    the 1-shard group and a config with an observer raises
    [Invalid_argument]) with one tracker per shard, in shard order,
    wrapped around the shard's sink, told of its kills and flush
    completions, and watching its stable database when the shard is
    EL.  [on_cross] is handed to the group. *)

val unsettled : t -> (Ids.Oid.t * int) list
(** The acked versions the stable database does not serve yet: for
    each object whose superblock floor is below its acked version
    ({!El_spec.Durable_log.unsettled}), the newest version acked, in
    unspecified order.  Its length follows the flush backlog, not the
    history. *)

val check_installs : t -> unit
(** Raises {!Auditor.Audit_failure} naming the first install into the
    watched stable database that ran it ahead of the acked state
    (["stable holds oN vX ahead of durably committed vY"], or ["... but
    no commit of it is durable"] for an object no ack covers), at this
    check and every later one; passes when nothing is watched. *)

val committed_count : t -> int
(** Transactions whose commit acknowledgement was a legal step. *)

val check_invariant : t -> unit
(** The [persistent ⊆ ephemeral] invariant, checked at a pause
    point.  Raises {!Auditor.Audit_failure} on violation.

    It checks ({!El_spec.Durable_log.check_objects}) only the objects
    flushed since the last passing check and then forgets them, which
    checks the whole invariant: an object's record fails only through
    its own flush, and an ack only raises the bound it is held under.
    A failing check keeps them, so every later check reports the same
    first violation. *)

type verdict = {
  lag : (Ids.Oid.t * int option * int option) option;
      (** the lowest object whose version in the image's stable
          database (second) is not its superblock floor (third) *)
  missing : (Ids.Oid.t * int) list;
      (** what the crash must keep and the recovery lost or left stale,
          in oid order *)
  spurious : (Ids.Oid.t * int) list;
      (** what the recovery holds instead, or holds that the crash
          must not keep, in oid order *)
}
(** The crash judge's finding on one recovered image. *)

val judge :
  t -> El_recovery.Recovery.image -> El_recovery.Recovery.result -> verdict
(** The one judge of a crash state: holds a recovery against the image
    it came from and the spec as the tracker holds it now, the crash
    instant.  Single-pass redo must restore every acknowledged update
    and nothing else, so the verdict is {!ok} only if both of these
    hold:

    - the image's own stable database serves the spec's superblock
      floor for every object installed into the watched database since
      the last judgement that found no lag.  When the image reads the
      watched database (a {!El_recovery.Recovery.crash} image is an
      overlay of it) a judgement that finds no lag forgets those
      installs.  An image that does not read it (a store scan, a copy,
      or a tracker that watches nothing) has proved nothing yet, so
      every object the spec holds or the image's stable database names
      is checked, and nothing is forgotten;
    - the recovered database equals what the crash must keep: the
      spec's acked versions over the image's stable version, each
      raised by the writes of every transaction whose COMMIT persisted
      inside a torn prefix and that the spec saw reach its log
      extension ({!El_spec.Durable_log.log_extended}, asked per
      transaction).  A torn-prefix COMMIT of a running, aborted or
      killed transaction raises nothing, so its redone writes are
      spurious.

    The recovered database is the stable one overlaid with the redo, and
    the stable database serves the acked version of every object whose
    floor has reached it (the floor half), so only the objects the redo,
    those commits or the acked-but-unsettled set
    ({!El_spec.Durable_log.unsettled}) name are compared: the cost
    follows the flush backlog and the log, not the history, and when
    the floor half holds, [missing] and [spurious] list exactly what a
    comparison of every object would.  Raises [Invalid_argument]
    unless [result] was recovered from [image] (its database overlays
    the image's), or if the image is stale. *)

val ok : verdict -> bool
(** No floor lag, nothing missing, nothing spurious. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** ["recovery audit: OK"], or ["recovery audit: FAILED (...)"] naming
    the floor lag, the counts and the lowest differing object. *)

val check_settled : t -> unit
(** After the run settles every acked version must have completed its
    flush.  Raises {!Auditor.Audit_failure} otherwise. *)

val check_settled_stable : t -> El_disk.Stable_db.t -> unit
(** Settled-state comparison: the stable database must hold exactly
    the newest acked version of every acked object and nothing else —
    every acknowledged commit was flushed, no uncommitted write
    leaked.  Only valid once all pending flushes have completed
    (manager drained, engine run dry).  Raises
    {!Auditor.Audit_failure} on divergence. *)

val violations : t -> string list
(** Illegal steps recorded while tracing, oldest first. *)

val checks : t -> int
(** Explicit spec checks performed (the pause invariant and the settled
    check); the install judge, the crash judge and the settled
    comparison against the plant are not counted. *)
