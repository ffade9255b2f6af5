(** The stable (disk) version of the database.

    The paper keeps a stable database version elsewhere on disk; the
    log only needs to retain enough information to bring it forward to
    the most recent committed state.  For the algorithms all that
    matters is, per object, the version number last flushed, so that
    is what we store.  Recovery (and its property tests) replay the
    surviving log on top of this map and compare with the reference
    committed state. *)

open El_model

type t

val create : num_objects:int -> t

val of_pairs : num_objects:int -> (Ids.Oid.t * int) list -> t
(** A stable DB rebuilt from persisted install facts — the highest
    version wins per oid, as in {!apply}.  Used when reconstructing a
    crash image from a store scan. *)

val apply : t -> Ids.Oid.t -> version:int -> unit
(** Records that [version] of [oid] is now durable in the stable
    version.  Versions are monotone per object: applying an older
    version than the one present is ignored (idempotent redo). *)

val version : t -> Ids.Oid.t -> int option
(** Last flushed version, or [None] if never written. *)

val objects_written : t -> int

val iter : t -> (Ids.Oid.t -> int -> unit) -> unit
(** Visits every (oid, version) pair, in unspecified order. *)

val snapshot : t -> (Ids.Oid.t * int) list
(** All (oid, version) pairs, in unspecified order. *)

val copy : t -> t
(** An independent copy — used to capture the stable state at a
    simulated crash point. *)

val equal : t -> t -> bool
