(** The paper's experiments (§4), one function per figure or in-text
    result.

    Common setup, from the paper: two transaction types (1 s / 2×100 B
    and 10 s / 4×100 B), 100 TPS deterministic arrivals, 500 s of
    simulated time, two EL generations, 10 database drives at 25 ms
    per flush (except the scarce-bandwidth test at 45 ms).

    Every function returns plain data; rendering lives in the bench
    executable.  [speed] trades fidelity for wall-clock time: [`Full]
    is the paper's 500 s runs with fine sweeps, [`Quick] shortens the
    runs for tests and interactive use (shapes still hold).

    Every sweep takes an optional [pool] ({!El_par.Pool}): the
    independent simulations behind a figure — one per mix point, per
    speculative probe, per candidate generation split — then fan out
    across its workers.  Results are collected in submission order
    and the searches stay bracket-equivalent to their serial
    counterparts, so the returned data is identical at any job count;
    the default is the serial pool. *)

type speed = [ `Full | `Quick ]

(** One x-axis point of Figures 4, 5 and 6 (they share their runs). *)
type mix_row = {
  long_pct : int;  (** percentage of 10 s transactions *)
  fw_blocks : int;  (** Fig. 4, FW series *)
  el_blocks : int;  (** Fig. 4, EL series (recirculation off) *)
  el_sizes : int array;  (** the (g0, g1) split behind [el_blocks] *)
  fw_bandwidth : float;  (** Fig. 5, block writes/s *)
  el_bandwidth : float;
  fw_memory : int;  (** Fig. 6, bytes *)
  el_memory : int;
  updates_per_sec : float;  (** §4: 210 rising to 280 *)
}

val figs_4_5_6 : ?pool:El_par.Pool.t -> ?speed:speed -> unit -> mix_row list
(** One row per mix 5, 10, 20, 30, 40 — the paper's x-axis range.
    With a [pool], each mix point runs as one pool job. *)

(** One point of Figure 7's trade-off sweep. *)
type fig7_row = {
  g1 : int;  (** last-generation size, blocks *)
  total_blocks : int;
  bw_last : float;  (** writes/s to the last generation *)
  bw_total : float;  (** both generations *)
  feasible : bool;
}

type fig7_result = {
  g0 : int;  (** first generation, fixed at its Fig. 4 optimum *)
  no_recirc_sizes : int array;  (** the Fig. 4 starting point *)
  rows : fig7_row list;  (** descending g1, recirculation on *)
}

val fig7 : ?pool:El_par.Pool.t -> ?speed:speed -> unit -> fig7_result
(** With a [pool], the descending last-generation sweep probes the
    next [jobs] sizes speculatively each round (same rows). *)

(** The §4 in-text headline: EL-with-recirculation minimum vs FW. *)
type headline = {
  fw_blocks : int;
  fw_bandwidth : float;
  el_blocks : int;
  el_sizes : int array;
  el_bandwidth : float;
  space_ratio : float;  (** paper: 4.4 *)
  bandwidth_increase_pct : float;  (** paper: 12 % *)
}

val headline :
  ?pool:El_par.Pool.t -> ?speed:speed -> ?fig7_result:fig7_result -> unit ->
  headline
(** Reuses a precomputed Figure-7 sweep when given, since the headline
    is its smallest feasible point. *)

(** The scarce-flush-bandwidth stress test (10 drives × 45 ms = 222
    flushes/s against 210 updates/s). *)
type scarce = {
  el_sizes : int array;  (** paper: 20 + 11 *)
  total_blocks : int;  (** paper: 31 *)
  bandwidth : float;  (** paper: 13.96 writes/s *)
  mean_flush_distance : float;  (** paper: ≈109,000 *)
  baseline_mean_flush_distance : float;  (** 25 ms case, paper: ≈235,000 *)
  flush_backlog_peak : int;
}

val scarce_flush : ?pool:El_par.Pool.t -> ?speed:speed -> unit -> scarce

(** Beyond the published figures: minimum disk space as the number of
    generations varies (§6: "the optimal number of generations and
    their sizes depends on the application"). *)
type gens_row = {
  generations : int;
  sizes : int array;  (** best sizes found *)
  total : int;
  bandwidth : float;
}

val generation_count_sweep :
  ?pool:El_par.Pool.t -> ?speed:speed -> ?long_pct:int -> unit -> gens_row list
(** Sweeps 1, 2 and 3 generations (recirculation on) at the given mix
    (default the paper's 5 %). *)

val base_config :
  ?speed:speed -> kind:Experiment.manager_kind -> long_pct:int -> unit ->
  Experiment.config
