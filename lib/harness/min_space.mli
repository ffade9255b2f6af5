(** Minimum-disk-space search.

    The paper obtained its space figures by re-running simulations with
    less and less disk space "until we observed transactions being
    killed" (§4); the reported figure is the smallest configuration
    that kills nobody.  This module automates that procedure: a
    configuration is {e feasible} when the run finishes with no kills,
    no forced evictions and no overload, and feasibility is monotone
    in the log size (more space never hurts), so the boundary can be
    searched.

    Two search modes share every entry point, selected by the
    optional [pool]:

    - {e binary search} (no [pool], or [Pool.jobs pool = 1]): the
      classic halving loop, one probe at a time — the historical
      serial path, unchanged.
    - {e speculative bracket} ([Pool.jobs pool > 1]): each round
      probes up to [jobs] evenly spaced candidates of the current
      bracket concurrently on the pool, then narrows the bracket as
      if the probes had been answered in ascending order.  Because
      feasibility is monotone and probes are deterministic, the mode
      returns {e exactly} the same minimum (and the same probe result
      for it) as the serial binary search — pinned by a regression
      test on the Figure 4 endpoints in [test/test_par.ml]. *)

open El_model

val min_feasible :
  ?pool:El_par.Pool.t ->
  lo:int ->
  hi:int ->
  (int -> Experiment.result) ->
  (int * Experiment.result) option
(** [min_feasible ~lo ~hi probe] is the smallest [n] in [lo, hi]
    whose probe is feasible, with that probe's result; [None] if even
    [hi] is infeasible.  Assumes monotone feasibility.  With a
    [?pool] of more than one job, probes several candidates per round
    (speculative bracket mode) — same answer, fewer rounds. *)

val min_fw :
  ?pool:El_par.Pool.t ->
  ?run:(Experiment.config -> Experiment.result) ->
  Experiment.config ->
  int * Experiment.result
(** Minimum single-log size for the firewall scheme under the given
    workload (the [kind] field of the config is ignored).  Uses a
    generous sizing run to bracket the search, then {!min_feasible}
    (bracket mode when [pool] has jobs).  [run] (default
    {!Experiment.run}) executes each probe — the sharded CLI injects
    [El_shard.Shard_group.run_global] here, since this library cannot
    depend on the shard layer.  Under a sharded [run] the size is per
    shard (every shard's log gets it) and the largest shard's peak
    occupancy brackets the search.  Raises [Failure] if no size up to
    16384 blocks suffices. *)

val min_el_last_gen :
  ?pool:El_par.Pool.t ->
  ?run:(Experiment.config -> Experiment.result) ->
  Experiment.config ->
  make_policy:(int array -> El_core.Policy.t) ->
  leading:int array ->
  hi:int ->
  (int * Experiment.result) option
(** [min_el_last_gen cfg ~make_policy ~leading ~hi] finds the smallest
    last-generation size such that [make_policy (leading @ [n])] is
    feasible, searching n in [gap+1, hi] (bracket mode when [pool]
    has jobs). *)

val min_el_two_gen :
  ?pool:El_par.Pool.t ->
  ?run:(Experiment.config -> Experiment.result) ->
  Experiment.config ->
  make_policy:(int array -> El_core.Policy.t) ->
  g0_candidates:int list ->
  hi:int ->
  (int array * Experiment.result) option
(** Minimises total blocks over two-generation configurations,
    trying each first-generation size in [g0_candidates] and
    searching the second.  With a [?pool], the candidates' searches
    fan out across the pool; outcomes are folded in candidate order,
    so the winner (including the larger-first-generation tie-break)
    is independent of the job count.  Returns the best [sizes] found
    and its run result. *)

val runtime_scale : Experiment.config -> Time.t -> Experiment.config
(** Shortens (or lengthens) a config's runtime — used by tests and
    quick modes; exposed here so callers scale consistently. *)
