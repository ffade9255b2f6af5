(** The invariant auditor the crash-point sweep runs at every pause.

    It holds no check of its own: each manager's [check_invariants]
    ({!El_core.El_manager.check_invariants},
    {!El_core.Fw_manager.check_invariants},
    {!El_core.Hybrid_manager.check_invariants}) is the one statement
    of that manager's invariants, and the auditor turns the [Failure]
    or [Assert_failure] it raises into an {!Audit_failure}. *)

exception Audit_failure of string
(** A violated invariant, as a message prefixed with the manager kind
    (["el: ..."]); {!Spec_tracker} raises it too. *)

val audit_manager : El_harness.Experiment.manager -> unit
(** Runs the [check_invariants] of whichever manager the value holds. *)
