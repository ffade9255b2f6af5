(** Streaming mean/variance (Welford's algorithm).

    Used for quantities the paper reports as averages over a run:
    the mean oid distance between successively flushed objects (the
    flush-locality metric of §4) and commit acknowledgement latency. *)

type t

val create : ?name:string -> unit -> t
val name : t -> string

val observe : t -> float -> unit

val count : t -> int
val mean : t -> float
(** 0 when no samples have been observed. *)

val variance : t -> float
(** {b Population} variance (Welford's [m2 / n]); 0 with fewer than
    two samples.  This treats the observations as the whole population
    — the right reading for simulator metrics, where every commit
    latency and flush distance of the run is observed, not sampled.
    For an unbiased estimate of the variance of a larger population
    from which the observations are a sample, use
    {!sample_variance}. *)

val sample_variance : t -> float
(** {b Sample} (Bessel-corrected) variance, [m2 / (n - 1)]; 0 with
    fewer than two samples.  Always at least {!variance}, converging
    to it as the number of observations grows. *)

val stddev : t -> float
(** [sqrt (variance t)] — the population standard deviation. *)

val min_value : t -> float
(** [infinity] when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit
