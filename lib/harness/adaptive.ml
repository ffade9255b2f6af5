open El_model
module Policy = El_core.Policy

type step = {
  epoch : int;
  sizes : int array;
  feasible : bool;
  healthy : bool;
  killed : int;
  evictions : int;
  bandwidth : float;
}

type outcome = {
  final_sizes : int array;
  final_result : Experiment.result;
  trajectory : step list;
  epochs_used : int;
  converged : bool;
}

let default_policy sizes = Policy.default ~generation_sizes:sizes

let run_epoch cfg make_policy sizes =
  Experiment.run
    { cfg with Experiment.kind = Experiment.Ephemeral (make_policy sizes) }

(* One controller pass: walk the generations oldest-first (the last
   generation is where kills bite, so it is the most delicate dial)
   shrinking each unfrozen generation until it pushes back. *)
let max_epochs = 64

let tune cfg ?(make_policy = default_policy) ~initial ?(shrink_step = 2)
    ?bandwidth_slack () =
  (match cfg.Experiment.kind with
  | Experiment.Ephemeral _ -> ()
  | Experiment.Firewall _ | Experiment.Hybrid _ ->
    (* each epoch replaces the EL policy; any other kind would be
       silently tuned as EL *)
    invalid_arg "Adaptive.tune: only an EL log has generations to tune");
  if Array.length initial = 0 then invalid_arg "Adaptive.tune: no generations";
  if shrink_step <= 0 then invalid_arg "Adaptive.tune: non-positive step";
  let floor_size = Params.head_tail_gap + 1 in
  let sizes = Array.copy initial in
  let frozen = Array.make (Array.length initial) false in
  let trajectory = ref [] in
  let epoch = ref 0 in
  let best = ref None in
  let record sizes ~healthy (r : Experiment.result) =
    incr epoch;
    trajectory :=
      {
        epoch = !epoch;
        sizes = Array.copy sizes;
        feasible = r.Experiment.feasible;
        healthy;
        killed = r.Experiment.killed;
        evictions = r.Experiment.evictions;
        bandwidth = r.Experiment.log_write_rate;
      }
      :: !trajectory
  in
  let accept sizes (r : Experiment.result) =
    best := Some (Array.copy sizes, r)
  in
  (* Baseline epoch: the initial configuration must be healthy. *)
  let baseline = run_epoch cfg make_policy sizes in
  record sizes ~healthy:baseline.Experiment.feasible baseline;
  if not baseline.Experiment.feasible then
    invalid_arg "Adaptive.tune: initial configuration is already unhealthy";
  accept sizes baseline;
  let bandwidth_budget =
    Option.map
      (fun slack -> baseline.Experiment.log_write_rate *. slack)
      bandwidth_slack
  in
  let healthy (r : Experiment.result) =
    r.Experiment.feasible
    &&
    match bandwidth_budget with
    | None -> true
    | Some budget -> r.Experiment.log_write_rate <= budget
  in
  let all_frozen () = Array.for_all (fun b -> b) frozen in
  (* Shrink generations round-robin, oldest first. *)
  let order =
    List.init (Array.length sizes) (fun i -> Array.length sizes - 1 - i)
  in
  while (not (all_frozen ())) && !epoch < max_epochs do
    List.iter
      (fun g ->
        if (not frozen.(g)) && !epoch < max_epochs then begin
          if sizes.(g) <= floor_size then frozen.(g) <- true
          else begin
            let attempt = Array.copy sizes in
            attempt.(g) <- max floor_size (sizes.(g) - shrink_step);
            let r = run_epoch cfg make_policy attempt in
            let ok = healthy r in
            record attempt ~healthy:ok r;
            if ok then begin
              sizes.(g) <- attempt.(g);
              accept attempt r
            end
            else
              (* drew blood (kills, or blew the bandwidth budget):
                 restore and freeze this generation *)
              frozen.(g) <- true
          end
        end)
      order
  done;
  match !best with
  | None -> assert false  (* the baseline was feasible *)
  | Some (final_sizes, final_result) ->
    {
      final_sizes;
      final_result;
      trajectory = List.rev !trajectory;
      epochs_used = !epoch;
      converged = all_frozen ();
    }
