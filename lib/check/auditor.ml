module Experiment = El_harness.Experiment
module El_manager = El_core.El_manager
module Fw_manager = El_core.Fw_manager
module Hybrid_manager = El_core.Hybrid_manager

exception Audit_failure of string

let audit_manager manager =
  let kind, check =
    match manager with
    | Experiment.El_log m -> ("el", fun () -> El_manager.check_invariants m)
    | Experiment.Fw_log m -> ("fw", fun () -> Fw_manager.check_invariants m)
    | Experiment.Hybrid_log m ->
      ("hybrid", fun () -> Hybrid_manager.check_invariants m)
  in
  try check () with
  | Failure msg -> raise (Audit_failure (kind ^ ": " ^ msg))
  | Assert_failure (file, line, _) ->
    raise
      (Audit_failure
         (Printf.sprintf "%s: structural invariant violated (%s:%d)" kind file
            line))
