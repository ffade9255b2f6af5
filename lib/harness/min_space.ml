open El_model
module Pool = El_par.Pool

let min_feasible ?(pool = Pool.serial) ~lo ~hi probe =
  if lo > hi then invalid_arg "Min_space.min_feasible: empty range";
  let result_at_hi = probe hi in
  if not result_at_hi.Experiment.feasible then None
  else begin
    let jobs = Pool.jobs pool in
    (* Bracket search: each round probes up to [jobs] evenly spaced
       candidates of the open bracket [lo', best_n) concurrently, then
       narrows the bracket as if the probes had been answered one by
       one in ascending order.  Feasibility is monotone in the log
       size, so the smallest feasible candidate bounds the bracket
       above and every infeasible candidate below it raises the floor.
       At [jobs = 1] the one candidate is the binary-search midpoint.
       Invariant: [best] is feasible at [best_n]; everything below
       [lo'] is known infeasible. *)
    let rec refine lo' best_n best =
      if lo' >= best_n then Some (best_n, best)
      else begin
        let width = best_n - lo' in
        let k = min jobs width in
        let candidates =
          List.sort_uniq compare
            (List.init k (fun i -> lo' + (width * (i + 1) / (k + 1))))
        in
        let results = Pool.map pool (fun n -> (n, probe n)) candidates in
        let rec scan lo' = function
          | [] -> refine lo' best_n best
          | (n, r) :: _ when r.Experiment.feasible -> refine lo' n r
          | (n, _) :: rest -> scan (n + 1) rest
        in
        scan lo' results
      end
    in
    refine lo hi result_at_hi
  end

let probe_fw ~run cfg n =
  run { cfg with Experiment.kind = Experiment.Firewall n }

let min_fw ?pool ?(run = Experiment.run) cfg =
  let probe_fw = probe_fw ~run in
  (* A generous run's peak occupancy brackets the answer: the log can
     never need fewer blocks than it ever simultaneously occupied.  A
     sharded run sizes every shard's log alike, so its largest shard
     brackets. *)
  let rec bracket size =
    if size > 16384 then failwith "Min_space.min_fw: workload needs >16384 blocks"
    else begin
      let r = probe_fw cfg size in
      if not r.Experiment.feasible then bracket (size * 4)
      else
        let peak =
          List.fold_left
            (fun peak -> function
              | Experiment.Fw_log_stats s ->
                max peak s.El_core.Fw_manager.peak_occupancy
              | _ -> peak)
            0 r.Experiment.stats
        in
        (* The paper's k-block gap must stay free on top of the peak. *)
        (peak, min 16384 (peak + 8))
    end
  in
  let peak, hi = bracket 512 in
  match min_feasible ?pool ~lo:(max 4 (peak - 2)) ~hi (probe_fw cfg) with
  | Some best -> best
  | None -> failwith "Min_space.min_fw: bracketing failed"

let probe_el ~run cfg ~make_policy sizes =
  run { cfg with Experiment.kind = Experiment.Ephemeral (make_policy sizes) }

let min_el_last_gen ?pool ?(run = Experiment.run) cfg ~make_policy ~leading ~hi
    =
  let probe n = probe_el ~run cfg ~make_policy (Array.append leading [| n |]) in
  let lo = Params.head_tail_gap + 1 in
  min_feasible ?pool ~lo ~hi probe

let min_el_two_gen ?(pool = Pool.serial) ?(run = Experiment.run) cfg
    ~make_policy ~g0_candidates ~hi =
  let best = ref None in
  let consider sizes result =
    let total = Array.fold_left ( + ) 0 sizes in
    let better =
      match !best with
      | None -> true
      | Some (best_sizes, best_total, _) ->
        (* Tie-break toward a larger first generation: it absorbs more
           records before they are forwarded, so at equal total space
           it costs less bandwidth (and matches the paper's choice of
           18+16 over 16+18). *)
        total < best_total
        || (total = best_total && sizes.(0) > (best_sizes : int array).(0))
    in
    if better then best := Some (sizes, total, result)
  in
  (* One last-generation search per candidate first-generation size;
     the searches are independent, so they fan out across the pool
     (each one running its own serial binary search).  The fold below
     visits the outcomes in candidate order, so the tie-break — and
     therefore the winner — is identical at any job count. *)
  let searched =
    Pool.map pool
      (fun g0 ->
        (g0, min_el_last_gen ~run cfg ~make_policy ~leading:[| g0 |] ~hi))
      g0_candidates
  in
  List.iter
    (fun (g0, outcome) ->
      match outcome with
      | Some (g1, result) -> consider [| g0; g1 |] result
      | None -> ())
    searched;
  match !best with
  | Some (sizes, _, result) -> Some (sizes, result)
  | None -> None
