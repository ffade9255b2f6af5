open El_model

type device = Log_gen of int | Flush_drive of int

let device_name = function
  | Log_gen i -> Printf.sprintf "gen%d" i
  | Flush_drive i -> Printf.sprintf "drive%d" i

type window = { w_from : Time.t; w_until : Time.t; w_factor : float }

type spec = {
  transient_rate : float;
  transient_burst : int;
  pinned_transient : int list;
  sticky_rate : float;
  pinned_sticky : int list;
  torn_rate : float;
  pinned_torn : int list;
  latency : window list;
}

let clean_spec =
  {
    transient_rate = 0.0;
    transient_burst = 1;
    pinned_transient = [];
    sticky_rate = 0.0;
    pinned_sticky = [];
    torn_rate = 0.0;
    pinned_torn = [];
    latency = [];
  }

type retry = { budget : int; penalty : Time.t }

let default_retry = { budget = 3; penalty = Time.zero }

type degraded = { shed_backlog : int }

type t = {
  seed : int;
  specs : (device * spec) list;
  retry : retry;
  spares : int;
  degraded : degraded option;
}

let empty =
  { seed = 0; specs = []; retry = default_retry; spares = 0; degraded = None }

let is_empty t = t.specs = [] && t.degraded = None

let spec_for t device = List.assoc_opt device t.specs

let check_rate name r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Fault_plan: %s %g outside [0, 1]" name r)

let check_pins name pins =
  List.iter
    (fun op ->
      if op < 0 then
        invalid_arg (Printf.sprintf "Fault_plan: negative pinned %s op" name);
      ignore op)
    pins

let validate_spec s =
  check_rate "transient_rate" s.transient_rate;
  check_rate "sticky_rate" s.sticky_rate;
  check_rate "torn_rate" s.torn_rate;
  if s.transient_burst < 1 then
    invalid_arg "Fault_plan: transient_burst must be at least 1";
  check_pins "transient" s.pinned_transient;
  check_pins "sticky" s.pinned_sticky;
  check_pins "torn" s.pinned_torn;
  List.iter
    (fun w ->
      if w.w_factor <= 0.0 then
        invalid_arg "Fault_plan: latency factor must be positive";
      if Time.(w.w_until < w.w_from) then
        invalid_arg "Fault_plan: latency window ends before it starts")
    s.latency

let validate t =
  if t.retry.budget < 0 then invalid_arg "Fault_plan: negative retry budget";
  if Time.(t.retry.penalty < Time.zero) then
    invalid_arg "Fault_plan: negative retry penalty";
  if t.spares < 0 then invalid_arg "Fault_plan: negative spare capacity";
  (match t.degraded with
  | Some d when d.shed_backlog < 0 ->
    invalid_arg "Fault_plan: negative shed backlog"
  | Some _ | None -> ());
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (dev, spec) ->
      if Hashtbl.mem seen dev then
        invalid_arg
          (Printf.sprintf "Fault_plan: duplicate spec for %s" (device_name dev));
      Hashtbl.replace seen dev ();
      validate_spec spec)
    t.specs

let make ?(seed = 0) ?(retry = default_retry) ?(spares = 1024) ?degraded
    ?(log_spec = clean_spec) ?(flush_spec = clean_spec) ~log_gens ~flush_drives
    () =
  if log_gens < 0 || flush_drives < 0 then
    invalid_arg "Fault_plan.make: negative device count";
  let specs =
    List.init log_gens (fun i -> (Log_gen i, log_spec))
    @ List.init flush_drives (fun i -> (Flush_drive i, flush_spec))
  in
  let t = { seed; specs; retry; spares; degraded } in
  validate t;
  t
