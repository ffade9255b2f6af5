(** The one witness of what a crash must keep: drives the
    {!El_spec.Durable_log} state machine from a live run and checks the
    implementation against it.  The managers keep no second model of
    the durable-log contract: the recovery audit takes its acked
    versions from here ({!unsettled}), and the installs into an EL
    plant's stable database are judged here ({!watch_stable}).

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
    {!check_crash}, {!check_settled}) with a ["spec:"]-prefixed
    message, the settled comparison against the plant
    ({!check_settled_stable}) with an ["oracle:"]-prefixed one, and
    the install judge ({!check_installs}) with the ["el:"] prefix the
    auditor gives what it finds in an EL manager. *)

open El_model

type t

val create : unit -> t

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
    an object nobody committed — and marks its object for
    {!check_crash}'s floor check.  Call it before the run installs
    anything.  Raises [Invalid_argument] on a second call. *)

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
    history.  Read at a crash instant, it is the [unsettled] argument
    of that crash's {!El_recovery.Recovery.audit}. *)

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

val check_crash : t -> El_disk.Stable_db.t -> unit
(** Checks the invariant as {!check_invariant} does, then a recovered
    database against the spec at the crash point: every acked version
    is served at least as new, any newer version is one
    {!El_spec.Durable_log.may_survive} allows (a log-extended
    transaction's write — e.g. a COMMIT persisted inside a torn
    prefix), and nothing never-acked-nor-log-extended survives.  "Zero
    lost acked commits", machine-checked.  Raises
    {!Auditor.Audit_failure} on divergence.

    The recovered database must be an overlay (a recovery's redo,
    possibly over further overlays) of the database given to
    {!watch_stable}; otherwise [Invalid_argument].  The check first
    proves that the stable database serves the spec's superblock floor
    for every object installed since the last passing check.  Every
    object neither unsettled
    ({!El_spec.Durable_log.unsettled}) nor named by the overlays then
    reads its floor in the recovered database, so only those objects
    are judged, in oid order: the cost follows the flush backlog and
    the redo, not the history, and the first failure is the one a pass
    over every acked object would report. *)

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
(** Explicit spec checks performed (invariant, crash, settled); the
    install judge and the settled comparison against the plant are not
    counted. *)
