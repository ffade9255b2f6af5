open El_model
module Policy = El_core.Policy
module Pool = El_par.Pool

type speed = [ `Full | `Quick ]

let runtime_of = function
  | `Full -> Time.of_sec 500
  | `Quick -> Time.of_sec 120

let base_config ?(speed = `Full) ~kind ~long_pct () =
  let mix =
    El_workload.Mix.short_long ~long_fraction:(float_of_int long_pct /. 100.0)
  in
  let cfg = Experiment.default_config ~kind ~mix in
  { cfg with Experiment.runtime = runtime_of speed }

let no_recirc sizes = { (Policy.default ~generation_sizes:sizes) with Policy.recirculate = false }
let with_recirc sizes = Policy.default ~generation_sizes:sizes

(* Candidate first-generation sizes for the two-generation optimum:
   a coarse sweep refined around the best point. *)
let optimize_two_gen ?pool cfg ~make_policy ~coarse ~hi =
  match
    Min_space.min_el_two_gen ?pool cfg ~make_policy ~g0_candidates:coarse ~hi
  with
  | None -> None
  | Some (sizes, result) ->
    let g0 = sizes.(0) in
    let refine = List.filter (fun c -> c > 0 && not (List.mem c coarse)) [ g0 - 1; g0 + 1 ] in
    (match
       Min_space.min_el_two_gen ?pool cfg ~make_policy ~g0_candidates:refine ~hi
     with
    | Some (sizes', result')
      when Array.fold_left ( + ) 0 sizes' < Array.fold_left ( + ) 0 sizes ->
      Some (sizes', result')
    | Some _ | None -> Some (sizes, result))

type mix_row = {
  long_pct : int;
  fw_blocks : int;
  el_blocks : int;
  el_sizes : int array;
  fw_bandwidth : float;
  el_bandwidth : float;
  fw_memory : int;
  el_memory : int;
  updates_per_sec : float;
}

let coarse_candidates = function
  | `Full -> [ 6; 8; 10; 12; 14; 16; 18; 20; 22; 24; 26; 30 ]
  | `Quick -> [ 8; 12; 16; 20; 24 ]

let figs_4_5_6 ?(pool = Pool.serial) ?(speed = `Full) () =
  (* One pool job per mix point; the searches inside a point stay
     serial (nesting would degrade to serial anyway).  Pool.map keeps
     submission order, so the rows come back in mix order at any
     job count. *)
  Pool.map pool
    (fun long_pct ->
      let cfg kind = base_config ~speed ~kind ~long_pct () in
      let fw_cfg = cfg (Experiment.Firewall 512) in
      let fw_blocks, fw_result = Min_space.min_fw fw_cfg in
      let el_cfg = cfg (Experiment.Firewall 512) (* kind replaced by probes *) in
      let el =
        optimize_two_gen el_cfg ~make_policy:no_recirc
          ~coarse:(coarse_candidates speed) ~hi:256
      in
      let el_sizes, el_result =
        match el with
        | Some (sizes, result) -> (sizes, result)
        | None -> failwith "figs_4_5_6: no feasible EL configuration found"
      in
      {
        long_pct;
        fw_blocks;
        el_blocks = Array.fold_left ( + ) 0 el_sizes;
        el_sizes;
        fw_bandwidth = fw_result.Experiment.log_write_rate;
        el_bandwidth = el_result.Experiment.log_write_rate;
        fw_memory = fw_result.Experiment.peak_memory_bytes;
        el_memory = el_result.Experiment.peak_memory_bytes;
        updates_per_sec = el_result.Experiment.updates_per_sec;
      })
    [ 5; 10; 20; 30; 40 ]

type fig7_row = {
  g1 : int;
  total_blocks : int;
  bw_last : float;
  bw_total : float;
  feasible : bool;
}

type fig7_result = {
  g0 : int;
  no_recirc_sizes : int array;
  rows : fig7_row list;
}

let fig7 ?(pool = Pool.serial) ?(speed = `Full) () =
  let cfg = base_config ~speed ~kind:(Experiment.Firewall 512) ~long_pct:5 () in
  let no_recirc_sizes =
    match
      optimize_two_gen ~pool cfg ~make_policy:no_recirc
        ~coarse:(coarse_candidates speed) ~hi:256
    with
    | Some (sizes, _) -> sizes
    | None -> failwith "fig7: no feasible starting configuration"
  in
  let g0 = no_recirc_sizes.(0) in
  let start_g1 = no_recirc_sizes.(1) in
  let floor = Params.head_tail_gap + 1 in
  let row_of g1 (r : Experiment.result) =
    let seconds = Time.to_sec_f cfg.Experiment.runtime in
    {
      g1;
      total_blocks = g0 + g1;
      bw_last = float_of_int r.Experiment.log_writes_per_gen.(1) /. seconds;
      bw_total = r.Experiment.log_write_rate;
      feasible = r.Experiment.feasible;
    }
  in
  let run_at g1 =
    Experiment.run
      { cfg with Experiment.kind = Experiment.Ephemeral (with_recirc [| g0; g1 |]) }
  in
  (* Recirculation on; shrink the last generation until transactions
     are killed, recording the bandwidth at each size.  With a pool,
     each round speculatively probes the next [jobs] sizes at once and
     keeps rows up to (and including) the first infeasible one — the
     same rows the one-at-a-time descent produces. *)
  let rec sweep g1 acc =
    if g1 < floor then List.rev acc
    else begin
      let k = min (Pool.jobs pool) (g1 - floor + 1) in
      let results =
        Pool.map pool (fun g1 -> row_of g1 (run_at g1)) (List.init k (fun i -> g1 - i))
      in
      let rec consume acc = function
        | [] -> sweep (g1 - k) acc
        | row :: _ when not row.feasible -> List.rev (row :: acc)
        | row :: rest -> consume (row :: acc) rest
      in
      consume acc results
    end
  in
  { g0; no_recirc_sizes; rows = sweep start_g1 [] }

type headline = {
  fw_blocks : int;
  fw_bandwidth : float;
  el_blocks : int;
  el_sizes : int array;
  el_bandwidth : float;
  space_ratio : float;
  bandwidth_increase_pct : float;
}

let headline ?(pool = Pool.serial) ?(speed = `Full) ?fig7_result () =
  let cfg = base_config ~speed ~kind:(Experiment.Firewall 512) ~long_pct:5 () in
  let fw_blocks, fw_result = Min_space.min_fw ~pool cfg in
  let fig7_result =
    match fig7_result with Some r -> r | None -> fig7 ~pool ~speed ()
  in
  let best =
    List.fold_left
      (fun best row -> if row.feasible then Some row else best)
      None fig7_result.rows
  in
  match best with
  | None -> failwith "headline: recirculation sweep found nothing feasible"
  | Some row ->
    let fw_bw = fw_result.Experiment.log_write_rate in
    {
      fw_blocks;
      fw_bandwidth = fw_bw;
      el_blocks = row.total_blocks;
      el_sizes = [| fig7_result.g0; row.g1 |];
      el_bandwidth = row.bw_total;
      space_ratio = float_of_int fw_blocks /. float_of_int row.total_blocks;
      bandwidth_increase_pct = (row.bw_total -. fw_bw) /. fw_bw *. 100.0;
    }

type gens_row = {
  generations : int;
  sizes : int array;
  total : int;
  bandwidth : float;
}

let generation_count_sweep ?(pool = Pool.serial) ?(speed = `Full)
    ?(long_pct = 5) () =
  let cfg = base_config ~speed ~kind:(Experiment.Firewall 512) ~long_pct () in
  let rows = ref [] in
  let record sizes (result : Experiment.result) =
    rows :=
      {
        generations = Array.length sizes;
        sizes;
        total = Array.fold_left ( + ) 0 sizes;
        bandwidth = result.Experiment.log_write_rate;
      }
      :: !rows
  in
  (* One generation: a single recirculating ring. *)
  (match
     Min_space.min_feasible ~pool ~lo:(Params.head_tail_gap + 1) ~hi:512
       (fun n ->
         Experiment.run
           { cfg with Experiment.kind = Experiment.Ephemeral (with_recirc [| n |]) })
   with
  | Some (n, result) -> record [| n |] result
  | None -> ());
  (* Two generations: the paper's configuration. *)
  (match
     optimize_two_gen ~pool cfg ~make_policy:with_recirc
       ~coarse:(coarse_candidates speed) ~hi:256
   with
  | Some (sizes, result) -> record sizes result
  | None -> ());
  (* Three generations: fix the front of the chain near the two-
     generation optimum and search the middle and last coarsely.  The
     (g0, g1) leading pairs are independent searches, so they fan out
     across the pool; the fold visits outcomes in the serial nested
     iteration order, keeping the winner job-count-independent. *)
  let g0_candidates = match speed with `Full -> [ 12; 16; 20 ] | `Quick -> [ 16 ] in
  let g1_candidates = [ 3; 4; 6; 8 ] in
  let leading_pairs =
    List.concat_map
      (fun g0 -> List.map (fun g1 -> (g0, g1)) g1_candidates)
      g0_candidates
  in
  let best3 = ref None in
  List.iter
    (fun ((g0, g1), outcome) ->
      match outcome with
      | Some (g2, result) ->
        let sizes = [| g0; g1; g2 |] in
        let total = Array.fold_left ( + ) 0 sizes in
        (match !best3 with
        | Some (_, best_total, _) when best_total <= total -> ()
        | Some _ | None -> best3 := Some (sizes, total, result))
      | None -> ())
    (Pool.map pool
       (fun (g0, g1) ->
         ( (g0, g1),
           Min_space.min_el_last_gen cfg ~make_policy:with_recirc
             ~leading:[| g0; g1 |] ~hi:128 ))
       leading_pairs);
  (match !best3 with
  | Some (sizes, _, result) -> record sizes result
  | None -> ());
  List.rev !rows

type scarce = {
  el_sizes : int array;
  total_blocks : int;
  bandwidth : float;
  mean_flush_distance : float;
  baseline_mean_flush_distance : float;
  flush_backlog_peak : int;
}

let scarce_flush ?(pool = Pool.serial) ?(speed = `Full) () =
  let base = base_config ~speed ~kind:(Experiment.Firewall 512) ~long_pct:5 () in
  let scarce_cfg = { base with Experiment.flush_transfer = Time.of_ms 45 } in
  (* Follow the paper's procedure: keep the first generation at its
     no-recirculation optimum for this flush rate and shrink only the
     last generation (as in Figure 7).  An unconstrained minimisation
     would instead find a much smaller but furiously recirculating
     configuration -- a different point of the trade-off than the
     paper's 20+11. *)
  let g0 =
    match
      optimize_two_gen ~pool scarce_cfg ~make_policy:no_recirc
        ~coarse:(coarse_candidates speed) ~hi:256
    with
    | Some (sizes, _) -> sizes.(0)
    | None -> failwith "scarce_flush: no feasible starting configuration"
  in
  let sizes =
    match
      Min_space.min_el_last_gen ~pool scarce_cfg ~make_policy:with_recirc
        ~leading:[| g0 |] ~hi:256
    with
    | Some (g1, _) -> [| g0; g1 |]
    | None -> failwith "scarce_flush: no feasible configuration"
  in
  let run_at cfg sizes =
    Experiment.run
      { cfg with Experiment.kind = Experiment.Ephemeral (with_recirc sizes) }
  in
  let r = run_at scarce_cfg sizes in
  let baseline = run_at base sizes in
  {
    el_sizes = sizes;
    total_blocks = Array.fold_left ( + ) 0 sizes;
    bandwidth = r.Experiment.log_write_rate;
    mean_flush_distance = r.Experiment.flush_mean_distance;
    baseline_mean_flush_distance = baseline.Experiment.flush_mean_distance;
    flush_backlog_peak = r.Experiment.flush_backlog_peak;
  }
