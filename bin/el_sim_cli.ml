(* el-sim: command-line front end to the ephemeral-logging simulator.

   Exposes every §3 simulator input: the transaction mix (pdf), the
   arrival rate, the flush rate (drives x transfer time), the number
   and sizes of generations, the recirculation flag and the runtime.

   [check] is the one sweep command: the crash-point sweep under the
   spec tracker, optionally with a seeded fault plan and over the
   preset x manager matrix ([--scenario all]).

   The subcommand list lives in [subcommands] at the bottom of this
   file; the group's synopsis is generated from it, so adding a
   command there is the only step needed to advertise it. *)

open El_model
open Cmdliner
module Experiment = El_harness.Experiment
module Policy = El_core.Policy

(* ---- shared options ---- *)

let mix_term =
  let doc =
    "Transaction mix as NAME:PROB:DURATION_S:NRECORDS:SIZE_B, repeatable. \
     Default: the paper's two types (short:0.95:1:2:100 long:0.05:10:4:100)."
  in
  let parse s =
    match String.split_on_char ':' s with
    | [ name; prob; dur; n; size ] -> (
      try
        Ok
          (El_workload.Tx_type.make ~name ~probability:(float_of_string prob)
             ~duration:(Time.of_sec_f (float_of_string dur))
             ~num_records:(int_of_string n) ~record_size:(int_of_string size))
      with _ -> Error (`Msg ("bad transaction type: " ^ s)))
    | _ -> Error (`Msg ("bad transaction type: " ^ s))
  in
  let print ppf ty = El_workload.Tx_type.pp ppf ty in
  let tx_conv = Arg.conv (parse, print) in
  Arg.(value & opt_all tx_conv [] & info [ "t"; "tx-type" ] ~doc)

let long_pct =
  let doc = "Shorthand for the paper's mix with $(docv)% 10s transactions." in
  Arg.(value & opt (some int) None & info [ "long-pct" ] ~doc ~docv:"PCT")

let rate =
  let doc = "Transaction arrival rate per second." in
  Arg.(value & opt float 100.0 & info [ "rate" ] ~doc)

let runtime =
  let doc = "Simulated runtime in seconds." in
  Arg.(value & opt float 500.0 & info [ "runtime" ] ~doc)

let drives =
  let doc = "Number of database drives for flushing." in
  Arg.(value & opt int 10 & info [ "drives" ] ~doc)

let transfer_ms =
  let doc = "Per-flush transfer time (ms)." in
  Arg.(value & opt int 25 & info [ "transfer-ms" ] ~doc)

let objects =
  let doc = "Number of objects in the database." in
  Arg.(value & opt int Params.num_objects & info [ "objects" ] ~doc)

let seed =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let generations =
  let doc = "Generation sizes in blocks, e.g. 18,16 (EL only)." in
  Arg.(value & opt (list int) [ 18; 16 ] & info [ "g"; "generations" ] ~doc)

let recirculate =
  let doc = "Disable recirculation in the last generation." in
  Arg.(value & flag & info [ "no-recirculation" ] ~doc)

let firewall =
  let doc = "Use the firewall baseline with $(docv) blocks instead of EL." in
  Arg.(value & opt (some int) None & info [ "fw"; "firewall" ] ~doc ~docv:"BLOCKS")

let abort_fraction =
  let doc = "Fraction of transactions that abort instead of committing." in
  Arg.(value & opt float 0.0 & info [ "abort-fraction" ] ~doc)

let poisson =
  let doc = "Use Poisson arrivals instead of the paper's regular spacing." in
  Arg.(value & flag & info [ "poisson" ] ~doc)

let shards_term =
  let doc =
    "Partition the object space into $(docv) contiguous oid ranges, each \
     owned by its own log-manager plant; transactions spanning shards commit \
     by two-phase commit (PREPARE markers plus a coordinator decision \
     record).  $(docv)=1 (default) is the solo path, byte-identical to a \
     world without sharding."
  in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg ("bad shard count: " ^ s))
  in
  let shards_conv = Arg.conv (parse, Format.pp_print_int) in
  Arg.(value & opt shards_conv 1 & info [ "shards" ] ~doc ~docv:"N")

(* --backend sim|mem|file[:DIR].  [file] without a directory puts the
   image in a fresh temp directory removed at exit; with one, images
   land (and stay) there. *)
let backend_term =
  let doc =
    "Durable store backend: $(b,sim) (default; durability is simulated, no \
     bytes written), $(b,mem) (blocks serialized with checksums into an \
     in-memory image), or $(b,file)[:DIR] (a real disk image written with \
     pwrite+fsync, in DIR or in a temporary directory removed at exit)."
  in
  let parse s =
    match s with
    | "sim" -> Ok `Sim
    | "mem" -> Ok `Mem
    | "file" -> Ok (`File None)
    | _ when String.length s > 5 && String.sub s 0 5 = "file:" ->
      Ok (`File (Some (String.sub s 5 (String.length s - 5))))
    | _ -> Error (`Msg ("bad backend (want sim|mem|file[:DIR]): " ^ s))
  in
  let print ppf = function
    | `Sim -> Format.pp_print_string ppf "sim"
    | `Mem -> Format.pp_print_string ppf "mem"
    | `File None -> Format.pp_print_string ppf "file"
    | `File (Some d) -> Format.fprintf ppf "file:%s" d
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Sim
    & info [ "backend" ] ~doc ~docv:"BACKEND")

let resolve_backend = function
  | `Sim -> Experiment.Sim
  | `Mem -> Experiment.Mem_store
  | `File (Some dir) -> Experiment.File_store dir
  | `File None ->
    let dir = Filename.temp_file "el-sim-images" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    at_exit (fun () ->
        try
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Unix.rmdir dir
        with Sys_error _ | Unix.Unix_error _ -> ());
    Experiment.File_store dir

(* --scenario NAME: a named adversarial workload preset.  Applied
   after the rest of the config is assembled, it replaces the traffic
   half (mix, arrival process, oid draw, lifetime, retry budget) while
   leaving the plant options (--rate, --runtime, --drives, sizing,
   --seed, --backend) in the caller's hands. *)
let scenario_conv =
  let parse s =
    match El_workload.Workload_preset.find s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown scenario %S (want %s)" s
              (String.concat "|" El_workload.Workload_preset.names)))
  in
  Arg.conv (parse, El_workload.Workload_preset.pp)

let scenario_term =
  let doc =
    Printf.sprintf
      "Workload scenario preset: %s.  Overrides the mix and arrival options \
       with the preset's traffic (skewed drawing, bursts, long-tail \
       lifetimes, contention retries) but keeps --rate, --runtime and the \
       plant options."
      (String.concat "|" El_workload.Workload_preset.names)
  in
  Arg.(
    value
    & opt (some scenario_conv) None
    & info [ "scenario" ] ~doc ~docv:"NAME")

let apply_scenario cfg = function
  | None -> cfg
  | Some p -> Experiment.apply_preset cfg p

(* Shared by the sweeping subcommands (min-space, check): the
   independent simulations fan out across $(docv) domains; outputs
   are identical to --jobs 1 (see lib/par). *)
let jobs_term =
  let doc =
    "Run the independent simulations of a sweep on $(docv) domains \
     (default 1 = serial; results are identical either way)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc ~docv:"N")

let with_pool jobs f =
  if jobs < 1 then begin
    prerr_endline "el-sim: --jobs must be at least 1";
    exit 2
  end;
  El_par.Pool.with_pool ~jobs f

let mix_of opts long_pct =
  match (opts, long_pct) with
  | [], None -> El_workload.Mix.short_long ~long_fraction:0.05
  | [], Some pct ->
    El_workload.Mix.short_long ~long_fraction:(float_of_int pct /. 100.0)
  | types, None -> El_workload.Mix.create types
  | _ :: _, Some _ ->
    failwith "--tx-type and --long-pct are mutually exclusive"

let config_of types long_pct rate runtime drives transfer_ms objects seed
    generations no_recirc firewall abort_fraction poisson backend shards =
  let mix = mix_of types long_pct in
  let kind =
    match firewall with
    | Some blocks -> Experiment.Firewall blocks
    | None ->
      let policy =
        {
          (Policy.default ~generation_sizes:(Array.of_list generations)) with
          Policy.recirculate = not no_recirc;
        }
      in
      Experiment.Ephemeral policy
  in
  {
    (Experiment.default_config ~kind ~mix) with
    Experiment.arrival_rate = rate;
    arrival_process =
      (if poisson then El_workload.Generator.Poisson
       else El_workload.Generator.Deterministic);
    runtime = Time.of_sec_f runtime;
    flush_drives = drives;
    flush_transfer = Time.of_ms transfer_ms;
    num_objects = objects;
    seed;
    abort_fraction;
    backend = resolve_backend backend;
    shards;
  }

let config_term =
  Term.(
    const config_of $ mix_term $ long_pct $ rate $ runtime $ drives
    $ transfer_ms $ objects $ seed $ generations $ recirculate $ firewall
    $ abort_fraction $ poisson $ backend_term $ shards_term)

(* ---- report rendering ---- *)

let print_result (r : Experiment.result) =
  let t =
    El_metrics.Table.create
      ~columns:[ ("metric", El_metrics.Table.Left); ("value", El_metrics.Table.Right) ]
  in
  let add k v = El_metrics.Table.add_row t [ k; v ] in
  add "log blocks configured" (string_of_int r.total_blocks);
  add "log writes"
    (Printf.sprintf "%d (%s)" r.log_writes_total
       (String.concat "+"
          (Array.to_list (Array.map string_of_int r.log_writes_per_gen))));
  add "log bandwidth (w/s)" (Printf.sprintf "%.2f" r.log_write_rate);
  add "peak LM memory (bytes)" (string_of_int r.peak_memory_bytes);
  add "transactions started" (string_of_int r.started);
  add "committed (acked)" (string_of_int r.committed);
  add "aborted" (string_of_int r.aborted);
  if r.contention_aborts > 0 || r.contention_retries > 0 then begin
    add "contention aborts" (string_of_int r.contention_aborts);
    add "contention retries" (string_of_int r.contention_retries)
  end;
  add "killed" (string_of_int r.killed);
  add "evictions" (string_of_int r.evictions);
  add "updates/s" (Printf.sprintf "%.1f" r.updates_per_sec);
  add "flushes" (string_of_int r.flushes_completed);
  add "forced flushes" (string_of_int r.forced_flushes);
  add "mean flush oid distance" (Printf.sprintf "%.0f" r.flush_mean_distance);
  add "peak flush backlog" (string_of_int r.flush_backlog_peak);
  add "mean commit latency (ms)"
    (Printf.sprintf "%.1f" (r.commit_latency_mean *. 1000.0));
  add "forwarded records" (string_of_int r.forwarded_records);
  add "recirculated records" (string_of_int r.recirculated_records);
  if r.backend_name <> "sim" then begin
    add "store backend" r.backend_name;
    add "store pwrites" (string_of_int r.store_pwrites);
    add "store fsync barriers" (string_of_int r.store_barriers);
    add "store bytes written" (string_of_int r.store_bytes_written)
  end;
  add "feasible (no kills/evictions)" (if r.feasible then "yes" else "NO");
  El_metrics.Table.print t

(* ---- subcommands ---- *)

let print_shard_table (rr : El_shard.Shard_group.run_result) =
  let t =
    El_metrics.Table.create
      ~columns:
        [
          ("shard", El_metrics.Table.Left);
          ("oid range", El_metrics.Table.Left);
          ("committed", El_metrics.Table.Right);
          ("branch acks", El_metrics.Table.Right);
          ("decisions", El_metrics.Table.Right);
          ("log writes", El_metrics.Table.Right);
        ]
  in
  Array.iter
    (fun (s : El_shard.Shard_group.shard_stat) ->
      El_metrics.Table.add_row t
        [
          string_of_int s.ss_shard;
          Printf.sprintf "[%d,%d)" s.ss_lo s.ss_hi;
          string_of_int s.ss_committed;
          string_of_int s.ss_branch_acks;
          string_of_int s.ss_decisions;
          string_of_int s.ss_result.Experiment.log_writes_total;
        ])
    rr.El_shard.Shard_group.r_shards;
  El_metrics.Table.print t;
  Printf.printf
    "single-shard commits: %d  cross-shard (2PC) commits: %d  prepares: %d  \
     blocked: %d\n"
    rr.El_shard.Shard_group.r_single_committed
    rr.El_shard.Shard_group.r_cross_committed rr.El_shard.Shard_group.r_prepares
    rr.El_shard.Shard_group.r_blocked

let run_cmd =
  let action cfg scenario =
    let cfg = apply_scenario cfg scenario in
    if cfg.Experiment.shards > 1 then begin
      let rr = El_shard.Shard_group.run cfg in
      print_result rr.El_shard.Shard_group.r_global;
      print_newline ();
      print_shard_table rr
    end
    else print_result (Experiment.run cfg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one simulation and print the report.")
    Term.(const action $ config_term $ scenario_term)

let min_space_cmd =
  (* A search that finds nothing is refused like a failed FW bracket:
     exit 2 with one [el-sim:] line. *)
  let no_feasible () =
    failwith "min-space: no feasible configuration found"
  in
  let action cfg scenario jobs =
    with_pool jobs @@ fun pool ->
    let cfg = apply_scenario cfg scenario in
    (* The min-space library can't depend on the shard layer (it lives
       below it), so the sharded probe runner is injected here. *)
    let run =
      if cfg.Experiment.shards > 1 then El_shard.Shard_group.run_global
      else Experiment.run
    in
    match cfg.Experiment.kind with
    | Experiment.Hybrid _ -> failwith "min-space: hybrid search is not supported"
    | Experiment.Firewall _ ->
      let blocks, result = El_harness.Min_space.min_fw ~pool ~run cfg in
      Printf.printf "minimum FW log: %d blocks\n\n" blocks;
      print_result result
    | Experiment.Ephemeral policy ->
      let make_policy sizes =
        { policy with Policy.generation_sizes = sizes }
      in
      let sizes0 = policy.Policy.generation_sizes in
      (match Array.length sizes0 with
      | 2 ->
        let candidates = List.init 14 (fun i -> 4 + (2 * i)) in
        (match
           El_harness.Min_space.min_el_two_gen ~pool ~run cfg ~make_policy
             ~g0_candidates:candidates ~hi:256
         with
        | Some (sizes, result) ->
          Printf.printf "minimum EL log: %d blocks (%s)\n\n"
            (Array.fold_left ( + ) 0 sizes)
            (String.concat "+"
               (Array.to_list (Array.map string_of_int sizes)));
          print_result result
        | None -> no_feasible ())
      | _ ->
        let leading = Array.sub sizes0 0 (Array.length sizes0 - 1) in
        (match
           El_harness.Min_space.min_el_last_gen ~pool ~run cfg ~make_policy
             ~leading ~hi:256
         with
        | Some (last, result) ->
          Printf.printf
            "minimum last generation: %d blocks (leading sizes fixed at %s)\n\n"
            last
            (String.concat "+"
               (Array.to_list (Array.map string_of_int leading)));
          print_result result
        | None -> no_feasible ()))
  in
  Cmd.v
    (Cmd.info "min-space"
       ~doc:
         "Search for the minimum disk space that kills no transaction (the \
          paper's methodology). With --fw searches the firewall baseline; \
          with two generations optimises both sizes; with more generations \
          fixes all but the last.  --jobs N probes several candidate sizes \
          per round on N domains (same minimum, fewer rounds).  Exits 2 \
          when no size within the search bound is feasible.")
    Term.(const action $ config_term $ scenario_term $ jobs_term)

let recover_cmd =
  let crash_at =
    let doc = "Crash time in seconds (default: runtime * 3/4)." in
    Arg.(value & opt (some float) None & info [ "crash-at" ] ~doc)
  in
  let action cfg scenario crash_at =
    let cfg = apply_scenario cfg scenario in
    let crash_at =
      match crash_at with
      | Some s -> Time.of_sec_f s
      | None -> Time.mul_int (Time.div_int cfg.Experiment.runtime 4) 3
    in
    let result, recovery, verdict, store =
      El_check.Sweep.run_with_crash cfg ~crash_at
    in
    let module Spec_tracker = El_check.Spec_tracker in
    Format.printf "crash at %a into a %a run@." Time.pp crash_at Time.pp
      cfg.Experiment.runtime;
    Printf.printf "records scanned: %d\n"
      recovery.El_recovery.Recovery.records_scanned;
    Printf.printf "redo applied: %d, skipped: %d\n"
      recovery.El_recovery.Recovery.redo_applied
      recovery.El_recovery.Recovery.redo_skipped;
    Printf.printf "committed transactions in durable log: %d\n"
      (List.length recovery.El_recovery.Recovery.committed_tids);
    Format.printf "%a@." Spec_tracker.pp_verdict verdict;
    let store_ok =
      match store with
      | None -> true
      | Some (sr, sv) ->
        let state (r : El_recovery.Recovery.result) =
          ( List.sort compare (El_disk.Stable_db.snapshot r.recovered),
            List.sort compare r.committed_tids )
        in
        let agrees = state sr = state recovery in
        Printf.printf
          "store replay: %d records scanned, %d committed — %s\n"
          sr.El_recovery.Recovery.records_scanned
          (List.length sr.El_recovery.Recovery.committed_tids)
          (if agrees then "agrees with simulated recovery"
           else "DIVERGES from simulated recovery");
        Format.printf "store replay: %a@." Spec_tracker.pp_verdict sv;
        agrees && Spec_tracker.ok sv
    in
    print_newline ();
    print_result result;
    if not (Spec_tracker.ok verdict && store_ok) then exit 1
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Crash an EL run midway, run single-pass recovery and judge it \
          against the durable-log spec at the crash instant: the image's \
          stable database must serve every superblock floor, and the \
          recovered state must hold every acked update and nothing else.  \
          With --backend mem|file, also replay the durable image frozen at \
          the crash instant, judge it the same way and compare the two \
          recovered states.  Exits 1 when a judgement fails or the store \
          replay diverges.")
    Term.(const action $ config_term $ scenario_term $ crash_at)

let adaptive_cmd =
  let initial =
    let doc = "Starting (generous) generation sizes for the controller." in
    Arg.(value & opt (list int) [ 30; 60 ] & info [ "initial" ] ~doc)
  in
  let action cfg initial =
    let outcome =
      El_harness.Adaptive.tune cfg ~initial:(Array.of_list initial) ()
    in
    List.iter
      (fun (s : El_harness.Adaptive.step) ->
        Printf.printf "epoch %2d: %-12s %s (%.2f w/s)\n" s.epoch
          (String.concat "+" (Array.to_list (Array.map string_of_int s.sizes)))
          (if s.feasible then "healthy"
           else Printf.sprintf "UNHEALTHY (%d kills, %d evictions)" s.killed
              s.evictions)
          s.bandwidth)
      outcome.El_harness.Adaptive.trajectory;
    Printf.printf "final: %s blocks (%s)\n"
      (String.concat "+"
         (Array.to_list
            (Array.map string_of_int outcome.El_harness.Adaptive.final_sizes)))
      (if outcome.El_harness.Adaptive.converged then "converged"
       else "epoch budget exhausted")
  in
  Cmd.v
    (Cmd.info "adaptive"
       ~doc:
         "Run the adaptive generation-sizing controller (Sec. 6's wished-for \
          capability): shrink generations epoch by epoch until the workload \
          pushes back.")
    Term.(const action $ config_term $ initial)

let trace_cmd =
  let scenario =
    let doc =
      "Preset overriding the other options: $(b,scarce) is the paper's \
       scarce-flush-capacity setup (45 ms flushes against a 20+11 EL log, \
       120 s) whose flush backlog climbs and then stabilises under the \
       negative-feedback effect of Sec. 4."
    in
    Arg.(
      value
      & opt (some (enum [ ("scarce", `Scarce) ])) None
      & info [ "scenario" ] ~doc ~docv:"NAME")
  in
  let out =
    let doc =
      "Output path prefix: writes $(docv).trace.json (Chrome trace_event, \
       loadable in Perfetto or chrome://tracing), $(docv).timeseries.csv and \
       $(docv).summary.json."
    in
    Arg.(value & opt string "el-sim-trace" & info [ "o"; "out" ] ~doc ~docv:"PREFIX")
  in
  let ring_capacity =
    let doc = "Trace ring capacity: retained events (newest win)." in
    Arg.(value & opt int 65536 & info [ "ring-capacity" ] ~doc)
  in
  let sample_ms =
    let doc = "Time-series sampling period in simulated milliseconds." in
    Arg.(value & opt int 100 & info [ "sample-ms" ] ~doc)
  in
  let write_file path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let action cfg scenario out ring_capacity sample_ms =
    let cfg =
      match scenario with
      | None -> cfg
      | Some `Scarce ->
        let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
        let policy = Policy.default ~generation_sizes:[| 20; 11 |] in
        {
          (Experiment.default_config ~kind:(Experiment.Ephemeral policy) ~mix) with
          Experiment.flush_transfer = Time.of_ms 45;
          runtime = Time.of_sec 120;
        }
    in
    let observer =
      Some
        {
          El_obs.Obs.ring_capacity;
          sample_period = Time.of_ms sample_ms;
        }
    in
    let cfg = { cfg with Experiment.observer } in
    let live = Experiment.prepare cfg in
    let result = live.Experiment.finish () in
    let o = Option.get live.Experiment.obs in
    let trace_path = out ^ ".trace.json" in
    let csv_path = out ^ ".timeseries.csv" in
    let summary_path = out ^ ".summary.json" in
    write_file trace_path (El_obs.Export.chrome_trace o);
    write_file csv_path (El_obs.Export.timeseries_csv o);
    write_file summary_path
      (El_obs.Export.summary_json
         ~extra:
           [
             ( "result",
               El_obs.Jsonx.Obj
                 [
                   ("committed", El_obs.Jsonx.Int result.Experiment.committed);
                   ("killed", El_obs.Jsonx.Int result.Experiment.killed);
                   ( "log_write_rate",
                     El_obs.Jsonx.Float result.Experiment.log_write_rate );
                   ( "flush_backlog_peak",
                     El_obs.Jsonx.Int result.Experiment.flush_backlog_peak );
                   ( "feasible",
                     El_obs.Jsonx.Bool result.Experiment.feasible );
                 ] );
           ]
         o);
    Printf.printf "trace:   %s (%d events recorded, %d dropped)\n" trace_path
      (El_obs.Obs.recorded o) (El_obs.Obs.dropped o);
    Printf.printf "series:  %s (%d samples x %d columns)\n" csv_path
      (El_obs.Sampler.length (El_obs.Obs.sampler o))
      (List.length (El_obs.Sampler.columns (El_obs.Obs.sampler o)));
    Printf.printf "summary: %s\n\n" summary_path;
    print_result result
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one simulation with the observability layer enabled and export \
          a Chrome trace_event JSON (Perfetto-loadable), a time-series CSV \
          and a machine-readable JSON summary.")
    Term.(
      const action $ config_term $ scenario $ out $ ring_capacity $ sample_ms)

(* The fault-plan flags of [check], as one plan whose seed each swept
   run replaces with its own; [None] when they arm no fault and no
   degraded mode.  [Fault_plan.make] validates every flag, so a bad
   rate is refused before anything runs. *)
let fault_plan_term =
  let module FP = El_fault.Fault_plan in
  let transient =
    let doc = "Per-op transient I/O failure probability on every device." in
    Arg.(value & opt float 0.0 & info [ "transient" ] ~doc)
  in
  let burst =
    let doc = "Maximum consecutive transient failures per affected op." in
    Arg.(value & opt int 2 & info [ "burst" ] ~doc)
  in
  let sticky =
    let doc = "Per-op sticky (bad-sector) probability on every device." in
    Arg.(value & opt float 0.0 & info [ "sticky" ] ~doc)
  in
  let torn =
    let doc = "Per-write torn-write probability on the log channels." in
    Arg.(value & opt float 0.0 & info [ "torn" ] ~doc)
  in
  let retry_budget =
    let doc = "Transient failures absorbed per op before remapping." in
    Arg.(value & opt int 3 & info [ "retry-budget" ] ~doc)
  in
  let penalty_ms =
    let doc =
      "Extra service time per absorbed retry (ms).  Non-zero penalties \
       perturb timing; the default 0 keeps retries timing-neutral."
    in
    Arg.(value & opt int 0 & info [ "penalty-ms" ] ~doc)
  in
  let spares =
    let doc = "Spare sectors per device (remap capacity; fatal at 0 left)." in
    Arg.(value & opt int 1024 & info [ "spares" ] ~doc)
  in
  let latency =
    let doc =
      "Latency window FACTOR:FROM_S:UNTIL_S on the flush drives, repeatable. \
       Service times are multiplied by FACTOR while simulated time lies in \
       [FROM, UNTIL)."
    in
    let parse s =
      match String.split_on_char ':' s with
      | [ f; a; b ] -> (
        try
          Ok
            {
              FP.w_factor = float_of_string f;
              w_from = Time.of_sec_f (float_of_string a);
              w_until = Time.of_sec_f (float_of_string b);
            }
        with _ -> Error (`Msg ("bad latency window: " ^ s)))
      | _ -> Error (`Msg ("bad latency window: " ^ s))
    in
    let print ppf (w : FP.window) =
      Format.fprintf ppf "%g:%g:%g" w.FP.w_factor
        (Time.to_sec_f w.FP.w_from)
        (Time.to_sec_f w.FP.w_until)
    in
    Arg.(value & opt_all (conv (parse, print)) [] & info [ "latency" ] ~doc)
  in
  let shed_backlog =
    let doc =
      "Arm degraded mode: shed arriving transactions while the flush backlog \
       is at least $(docv)."
    in
    Arg.(value & opt (some int) None & info [ "shed-backlog" ] ~doc ~docv:"N")
  in
  let plan transient burst sticky torn retry_budget penalty_ms spares latency
      shed_backlog =
    let log_spec =
      {
        FP.clean_spec with
        FP.transient_rate = transient;
        transient_burst = burst;
        sticky_rate = sticky;
        torn_rate = torn;
      }
    in
    (* Latency windows go on the flush drives only: delaying a log
       channel can defer a survivor's forward write past the reuse of
       its origin slot, which genuinely loses data at a crash (a real
       hazard of the design, documented in DESIGN.md Sec. 10) — the
       audited sweep exercises timing faults where they are safe. *)
    let flush_spec =
      {
        FP.clean_spec with
        FP.transient_rate = transient;
        transient_burst = burst;
        sticky_rate = sticky;
        latency;
      }
    in
    let plan =
      FP.make
        ~retry:{ FP.budget = retry_budget; penalty = Time.of_ms penalty_ms }
        ~spares
        ?degraded:(Option.map (fun n -> { FP.shed_backlog = n }) shed_backlog)
        ~log_spec ~flush_spec ~log_gens:2 ~flush_drives:2 ()
    in
    if
      transient > 0.0 || sticky > 0.0 || torn > 0.0 || latency <> []
      || shed_backlog <> None
    then Some plan
    else None
  in
  Term.(
    const plan $ transient $ burst $ sticky $ torn $ retry_budget $ penalty_ms
    $ spares $ latency $ shed_backlog)

let check_cmd =
  let module FP = El_fault.Fault_plan in
  let module Preset = El_workload.Workload_preset in
  let module Sweep = El_check.Sweep in
  let seeds =
    let doc =
      "Number of seeds to sweep per manager kind (default 3, or 1 with \
       --quick)."
    in
    Arg.(value & opt (some int) None & info [ "seeds" ] ~doc)
  in
  let stride =
    let doc =
      "Events between audit pauses: an integer, or small|medium|large \
       (50/200/1000).  Smaller strides crash more often and run longer \
       (default 200, or 40 with --quick)."
    in
    let parse = function
      | "small" -> Ok 50
      | "medium" -> Ok 200
      | "large" -> Ok 1000
      | s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | _ -> Error (`Msg ("bad stride: " ^ s)))
    in
    let stride_conv = Arg.conv (parse, Format.pp_print_int) in
    Arg.(value & opt (some stride_conv) None & info [ "stride" ] ~doc)
  in
  let check_runtime =
    let doc =
      "Simulated runtime of each swept run, in seconds (default 20, or 15 \
       with --quick)."
    in
    Arg.(value & opt (some float) None & info [ "runtime" ] ~doc)
  in
  let check_rate =
    let doc = "Transaction arrival rate of each swept run, per second." in
    Arg.(value & opt float 40.0 & info [ "rate" ] ~doc)
  in
  let quick =
    let doc =
      "CI preset: 1 seed, stride 40 and 15 s runs, unless --seeds, --stride \
       or --runtime says otherwise; requires at least 50 crash points per \
       sweep."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let scenarios =
    let doc =
      Printf.sprintf
        "Workload scenario preset: %s, or $(b,all) to sweep every preset in \
         turn (the preset x manager matrix).  Replaces the traffic of each \
         swept run with the preset's (skewed drawing, bursts, long-tail \
         lifetimes, contention retries) and scales the managers' logs to it."
        (String.concat "|" Preset.names)
    in
    let parse = function
      | "all" -> Ok Preset.all
      | s -> (
        match Preset.find s with
        | Some p -> Ok [ p ]
        | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown scenario %S (want all|%s)" s
                  (String.concat "|" Preset.names))))
    in
    let print ppf = function
      | [ p ] -> Preset.pp ppf p
      | _ -> Format.pp_print_string ppf "all"
    in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "scenario" ] ~doc ~docv:"NAME")
  in
  let action seeds stride runtime rate quick backend scenarios shards plan
      jobs =
    let default ~quick:q ~full v =
      Option.value v ~default:(if quick then q else full)
    in
    let seeds = default ~quick:1 ~full:3 seeds in
    let stride = default ~quick:40 ~full:200 stride in
    let runtime = default ~quick:15.0 ~full:20.0 runtime in
    if seeds < 1 then invalid_arg "--seeds must be at least 1";
    with_pool jobs @@ fun pool ->
    let runtime = Time.of_sec_f runtime in
    let backend = resolve_backend backend in
    let presets =
      match scenarios with
      | None -> [ None ]
      | Some ps -> List.map Option.some ps
    in
    let matrix = List.compare_length_with presets 1 > 0 in
    let int f (o : Sweep.outcome) = string_of_int (f o) in
    (* The columns after manager and seed, each with its cell. *)
    let columns =
      [
        ("events", int (fun o -> o.Sweep.events));
        ("pauses", int (fun o -> o.Sweep.points));
        ("recoveries", int (fun o -> o.Sweep.recoveries));
        ("committed", int (fun o -> o.Sweep.committed));
        ("killed", int (fun o -> o.Sweep.killed));
        ("max scan", int (fun o -> o.Sweep.max_records_scanned));
        ("spec checks", int (fun o -> o.Sweep.spec_checks));
      ]
      @ (if plan = None then []
         else
           [
             ("torn blk", int (fun o -> o.Sweep.torn_blocks));
             ("torn rec", int (fun o -> o.Sweep.torn_records));
             ("retries", int (fun o -> o.Sweep.io_retries));
             ("remaps", int (fun o -> o.Sweep.io_remaps));
             ("sheds", int (fun o -> o.Sweep.sheds));
           ])
      @ [
          ( "failures",
            fun o ->
              if o.Sweep.overloaded then "overloaded"
              else if o.Sweep.faulted then "io-fatal"
              else string_of_int (List.length o.Sweep.failures) );
        ]
    in
    let t =
      El_metrics.Table.create
        ~columns:
          ((if matrix then [ ("scenario", El_metrics.Table.Left) ] else [])
          @ [
              ("manager", El_metrics.Table.Left);
              ("seed", El_metrics.Table.Right);
            ]
          @ List.map (fun (c, _) -> (c, El_metrics.Table.Right)) columns)
    in
    let failures = ref [] in
    List.iter
      (fun preset ->
        List.iter
          (fun (kind_name, kind) ->
            let scenario, name =
              match preset with
              | Some p when matrix ->
                ([ p.Preset.name ], p.Preset.name ^ "/" ^ kind_name)
              | _ -> ([], kind_name)
            in
            for seed = 1 to seeds do
              let cfg =
                Sweep.standard_config ~kind ~runtime ~rate ~seed ~backend
                  ?preset ()
              in
              let fault =
                match plan with
                | Some p -> { p with FP.seed }
                | None -> cfg.Experiment.fault
              in
              let o =
                Sweep.run ~pool ~stride ~spec:true
                  { cfg with Experiment.shards; fault }
              in
              El_metrics.Table.add_row t
                (scenario
                @ [ kind_name; string_of_int seed ]
                @ List.map (fun (_, cell) -> cell o) columns);
              if quick && o.Sweep.points < 50 then
                failures :=
                  Printf.sprintf
                    "%s seed %d: only %d crash points (quick mode requires 50)"
                    name seed o.Sweep.points
                  :: !failures;
              List.iter
                (fun (at, msg) ->
                  failures :=
                    Printf.sprintf "%s seed %d [event %d]: %s" name seed at msg
                    :: !failures)
                o.Sweep.failures
            done)
          (Sweep.standard_kinds ()))
      presets;
    El_metrics.Table.print t;
    match List.rev !failures with
    | [] -> print_endline "all sweeps clean"
    | fs ->
      Printf.eprintf "%d audit failure(s):\n" (List.length fs);
      List.iter prerr_endline fs;
      exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check the simulator: sweep seeded runs of all three log \
          managers, auditing invariants and (for EL) crash-recovering at \
          every stride-th event boundary, while the durable-log spec \
          (Spec_tracker) shadows every run.  The spec judges every \
          recovered crash image (every acked update restored and nothing \
          else: a machine-checked 'ack implies recoverable' contract), its \
          persistent-never-exceeds-ephemeral invariant must hold at every \
          pause, and the settled run must have flushed every ack and left \
          each manager's stable database at the acked state.  The fault \
          flags (--transient, --sticky, --torn, \
          --latency, --shed-backlog) arm a seeded disk-fault plan in every \
          run, and the table gains the fault columns.  --scenario NAME \
          swaps in a workload preset; --scenario all sweeps every preset.  \
          With --backend mem|file, every swept run also serializes its \
          blocks through the durable store.  Exits non-zero on any \
          divergence.  --jobs N fans each sweep's crash points out across N \
          domains (identical findings, shorter wall-clock).  --shards N \
          sweeps the multi-shard plant instead: a spec tracker per shard \
          plus the global atomic-commit invariant over every crash point.")
    Term.(
      const action $ seeds $ stride $ check_runtime $ check_rate $ quick
      $ backend_term $ scenarios $ shards_term $ fault_plan_term
      $ jobs_term)

let serve_cmd =
  let image =
    let doc = "Disk image to serve (created if absent)." in
    Arg.(value & opt string "disk.img" & info [ "image" ] ~doc ~docv:"PATH")
  in
  let socket =
    let doc =
      "Listen on a Unix-domain socket at $(docv) instead of serving one \
       session over stdin/stdout."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~doc ~docv:"PATH")
  in
  let fresh =
    let doc = "Truncate the image instead of recovering its contents." in
    Arg.(value & flag & info [ "fresh" ] ~doc)
  in
  let serve_objects =
    let doc = "Number of objects in the served database." in
    Arg.(value & opt int 100_000 & info [ "objects" ] ~doc)
  in
  let serve_generations =
    let doc = "EL generation sizes in blocks." in
    Arg.(value & opt (list int) [ 32; 32 ] & info [ "g"; "generations" ] ~doc)
  in
  let hybrid =
    let doc = "Use the hybrid manager with $(docv) queue sizes." in
    Arg.(
      value & opt (some (list int)) None & info [ "hybrid" ] ~doc ~docv:"BLOCKS")
  in
  let group_fsync =
    let doc =
      "Batch writes and fsyncs per commit: segments appended since the \
       last COMMIT are staged in memory and written with one pwrite and \
       one fsync before its ack, instead of a pwrite and an fsync per \
       segment.  Acked commits keep the same crash guarantee."
    in
    Arg.(value & flag & info [ "group-fsync" ] ~doc)
  in
  let action image socket fresh objects generations hybrid group_fsync =
    let kind =
      match hybrid with
      | Some qs -> Experiment.Hybrid (Array.of_list qs)
      | None ->
        Experiment.Ephemeral
          (Policy.default ~generation_sizes:(Array.of_list generations))
    in
    let t =
      El_serve.Serve.start
        { El_serve.Serve.image; fresh; kind; num_objects = objects;
          group_fsync }
    in
    let r = El_serve.Serve.recovered t in
    (* Status goes to stderr: in stdio mode stdout carries the
       protocol. *)
    Printf.eprintf "el-sim serve: image %s, %d committed transaction(s) recovered\n%!"
      image
      (List.length r.El_recovery.Recovery.committed_tids);
    (match socket with
    | None -> El_serve.Serve.serve_channel t stdin stdout
    | Some path ->
      Printf.eprintf "el-sim serve: listening on %s\n%!" path;
      El_serve.Serve.serve_socket t ~socket_path:path);
    El_serve.Serve.close t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a durable log over a real disk image: transactions arrive as \
          BEGIN/WRITE/COMMIT/ABORT lines (stdin or --socket), every \
          [ok committed] ack is written only after the COMMIT record has \
          been fsynced, and a restart recovers all acked state from the \
          image.  The log manager is EL (-g) or the EL-FW hybrid \
          (--hybrid); the FW baseline is not served, since it flushes \
          nothing to a stable database and a restart would lose acked \
          writes.")
    Term.(
      const action $ image $ socket $ fresh $ serve_objects
      $ serve_generations $ hybrid $ group_fsync)

let () =
  let subcommands =
    [ run_cmd; min_space_cmd; recover_cmd; adaptive_cmd; check_cmd;
      trace_cmd; serve_cmd ]
  in
  (* One list, one synopsis: the summary is generated from the
     commands themselves so it cannot drift as subcommands come and
     go. *)
  let doc =
    Printf.sprintf
      "Ephemeral logging simulator (Keen & Dally, SIGMOD 1993). Subcommands: \
       %s."
      (String.concat ", " (List.map Cmd.name subcommands))
  in
  let info = Cmd.info "el-sim" ~version:"1.0.0" ~doc in
  let code =
    try Cmd.eval ~catch:false (Cmd.group info subcommands)
    with
    | Failure msg | Sys_error msg | Invalid_argument msg ->
      Printf.eprintf "el-sim: %s\n" msg;
      2
    | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "el-sim: %s: %s (%s)\n" fn (Unix.error_message e) arg;
      2
  in
  exit code
