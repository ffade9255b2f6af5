(** Object-identifier drawing under the paper's constraint (§3): an
    oid may be chosen for an update only if no transaction that is
    still active has already chosen it.

    The database has NUM_OBJECTS = 10⁷ objects while only a few
    hundred are in use at any instant, so rejection sampling from the
    engine's RNG terminates essentially immediately. *)

open El_model

type t

val create : num_objects:int -> t

val acquire : t -> Random.State.t -> Ids.Oid.t option
(** Draws a fresh oid not currently held by any active transaction
    and marks it held.  [None] only if every object is held (possible
    in stress tests with tiny databases). *)

val claim : t -> Ids.Oid.t -> bool
(** Attempts to mark a {e specific} oid held — the skewed-draw path,
    where the drawing distribution (not the pool) picks the object.
    Returns [false], changing nothing, if an active writer already
    holds it; that collision is the contention signal the generator
    turns into an abort + retry.  Raises [Invalid_argument] for an
    oid outside the database. *)

val release : t -> Ids.Oid.t -> unit
(** Returns an oid to the free pool — when its transaction requests
    termination (commits) or is aborted/killed.  Raises
    [Invalid_argument] if the oid was not held. *)

val in_use : t -> int
val num_objects : t -> int
