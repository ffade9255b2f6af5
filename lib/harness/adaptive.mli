(** Adaptive generation sizing — the capability §6 wishes for:
    "Ideally, we would like an adaptable version of EL that
    dynamically chooses the number and sizes of generations itself",
    because the paper "cannot offer any provably correct analytical
    methods" to the DBA who must configure them.

    This controller discovers generation sizes by observation, the way
    an autonomous DBA would: starting from a deliberately generous
    configuration it repeatedly runs an epoch of the workload, shrinks
    a generation while the system stays healthy (no kills, no
    evictions, no overload), and backs off — freezing that generation
    — as soon as shrinking draws blood.  It converges to a
    near-minimal configuration without any analytical model of the
    workload, and reports the whole trajectory so the convergence can
    be inspected and benchmarked. *)

type step = {
  epoch : int;
  sizes : int array;  (** configuration tried in this epoch *)
  feasible : bool;  (** no kills, evictions or overload *)
  healthy : bool;
      (** the controller's verdict: feasible {e and} within the
          bandwidth budget *)
  killed : int;
  evictions : int;
  bandwidth : float;  (** log block writes/s at this configuration *)
}

type outcome = {
  final_sizes : int array;  (** smallest healthy configuration found *)
  final_result : Experiment.result;
  trajectory : step list;  (** in epoch order *)
  epochs_used : int;
  converged : bool;  (** every generation frozen before the budget ran out *)
}

val tune :
  Experiment.config ->
  ?make_policy:(int array -> El_core.Policy.t) ->
  initial:int array ->
  ?shrink_step:int ->
  ?bandwidth_slack:float ->
  unit ->
  outcome
(** [tune cfg ~initial ()] runs the controller.  [cfg]'s [kind] must
    be [Ephemeral]: its policy is replaced per epoch (by [make_policy]
    of the sizes tried), and another kind raises [Invalid_argument]
    rather than being tuned as EL.  [cfg]'s runtime is one epoch.
    It runs at most 64 epochs.  [make_policy] defaults to the paper's
    policy (recirculation on); [shrink_step] (blocks removed per
    healthy epoch, per generation) defaults to 2.

    [bandwidth_slack], when given, bounds how much log bandwidth the
    controller may spend for its space savings: a configuration whose
    write rate exceeds [slack x] the initial epoch's is treated as
    unhealthy even if nothing was killed.  Without it the controller
    minimises space alone and will happily recirculate furiously --
    EL's own trade-off (Fig. 7) made into a knob.

    Raises [Invalid_argument] if [initial] is not a feasible starting
    point for the controller to shrink. *)
