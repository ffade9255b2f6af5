(** The stable (disk) version of the database.

    The paper keeps a stable database version elsewhere on disk; the
    log only needs to retain enough information to bring it forward to
    the most recent committed state.  For the algorithms all that
    matters is, per object, the version number last flushed, so that
    is what we store.  Recovery (and its property tests) replay the
    surviving log on top of this map and compare with the reference
    committed state.

    An {!overlay} is a database that starts as a view of another one,
    its base: reads fall through to the base, applies land in the
    overlay alone.  Recovery redoes the log into an overlay of the
    stable version, so its cost follows the log, not the number of
    objects ever flushed.  An overlay is valid only until its base's
    next install: after that every read through it raises
    [Invalid_argument], never silently mixing two instants.  Keep a
    {!copy} to read a state after its base has moved on. *)

open El_model

type t

val create : num_objects:int -> t

val of_table : num_objects:int -> int Ids.Oid.Table.t -> t
(** A stable DB that adopts [versions] (one version per oid) as its
    contents, without copying: the caller hands the table over and must
    not touch it again.  Used when reconstructing a crash image from a
    store scan, whose install facts already fold to the highest version
    per oid.  Raises [Invalid_argument], as {!apply} does, if an oid is
    not below [num_objects], and as {!create} does if [num_objects] is
    not positive. *)

val overlay : t -> t
(** A new, empty overlay of the database: it reads as its base until
    something is applied to it.  Raises [Invalid_argument] if the base
    is itself a stale overlay. *)

val base : t -> t option
(** The database an overlay reads through; [None] for one made by
    {!create}, {!of_table} or {!copy}. *)

val apply : t -> Ids.Oid.t -> version:int -> unit
(** Records that [version] of [oid] is now durable in the stable
    version.  Versions are monotone per object: applying an older
    version than the one present is ignored (idempotent redo).  An
    apply that raises the version is an install: it runs every
    {!on_install} callback and makes every overlay of this database
    stale. *)

val on_install :
  t -> (Ids.Oid.t -> version:int -> previous:int option -> unit) -> unit
(** [on_install t f] calls [f oid ~version ~previous] after every
    install into [t] itself (not into its overlays), whoever makes it;
    [previous] is the version [t] served before.  Callbacks run in
    registration order. *)

val version : t -> Ids.Oid.t -> int option
(** Last flushed version, or [None] if never written. *)

val objects_written : t -> int

val iter : t -> (Ids.Oid.t -> int -> unit) -> unit
(** Visits every (oid, version) pair, in unspecified order. *)

val iter_overlay : t -> (Ids.Oid.t -> int -> unit) -> unit
(** Visits the pairs applied to this overlay itself: every object
    whose version here differs from its base's.  For a database with
    no base this is {!iter}. *)

val snapshot : t -> (Ids.Oid.t * int) list
(** All (oid, version) pairs, in unspecified order. *)

val copy : t -> t
(** An independent database with the same contents and no base or
    callbacks — used to keep a crash state while the run goes on. *)

val equal : t -> t -> bool
(** Same (oid, version) pairs, whatever the layers behind them. *)
