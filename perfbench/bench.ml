(* The benchmark's engine: runs one workload with one seed, checks its
   gates, and prints every metric by name with its unit.  The launcher
   (run.py) builds this program and el-sim, pins it to one CPU and
   passes the paths below.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --el-sim PATH --dir DIR [--images FILL,RUN,SCRATCH]
               [--tiny] [--plant FAULT]

   --trace 0 prints the end-to-end metrics of an untraced run.
   --trace 1 runs the workload untraced and then traced, S/2 seconds
   each, and prints the per-layer metrics plus overhead.<metric>, the
   traced end-to-end value minus the untraced one.  A layer metric the
   workload does not cross is printed as 0. *)

open Util

let end_to_end_units =
  [
    ("setup_s", "s");
    ("commits_per_s", "1/s");
    ("commit_p50_ms", "ms");
    ("commit_p99_ms", "ms");
    ("fsyncs_per_commit", "1");
    ("write_amp", "1");
    ("points_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let layer_units =
  [
    ("serve.begin_us", "us");
    ("serve.write_us", "us");
    ("serve.commit_us", "us");
    ("serve.start_s", "s");
    ("serve.noop_rtt_us", "us");
    ("serve.server_cpu_us", "us");
    ("serve.client_cpu_us", "us");
    ("serve.runq_wait_us", "us");
    ("store.scan_s", "s");
    ("store.image_mb", "MB");
    ("store.pwrites_per_commit", "1");
    ("store.bytes_per_commit", "B");
    ("recovery.recover_store_s", "s");
    ("recovery.records_scanned", "count");
    ("recovery.crash_recover_s", "s");
    ("recovery.us_per_recovery", "us");
    ("core.el.sink_us_per_commit", "us");
    ("core.fw.sink_us_per_commit", "us");
    ("core.hybrid.sink_us_per_commit", "us");
    ("core.forwarded_per_commit", "1");
    ("core.recirculated_per_commit", "1");
    ("sim.events_per_commit", "1");
    ("sim.loop_us_per_commit", "us");
    ("disk.log_writes_per_commit", "1");
    ("disk.flushes_per_commit", "1");
    ("disk.flush_backlog_peak", "count");
    ("harness.prepare_ms", "ms");
    ("check.replay_s", "s");
    ("check.audit_s", "s");
    ("check.reference_s", "s");
    ("check.spec_s", "s");
    ("check.points", "count");
    ("check.recoveries", "count");
    ("check.spec_checks", "count");
    ("shard.us_per_point", "us");
    ("shard.solo_us_per_point", "us");
    ("gc.minor_words_per_commit", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
  ]
  @ List.map (fun (n, u) -> ("overhead." ^ n, u)) end_to_end_units

(* Puts a workload's metrics in the canonical order, checking each
   name and unit against the canonical list. *)
let canonical units ~fill metrics =
  List.iter
    (fun mt ->
      gate
        (List.assoc_opt mt.name units = Some mt.unit_)
        "metric %s (%s) is not in the canonical list" mt.name mt.unit_)
    metrics;
  List.filter_map
    (fun (name, unit_) ->
      match List.find_opt (fun mt -> mt.name = name) metrics with
      | Some mt -> Some mt
      | None -> if fill then Some (m name unit_ 0.0) else (gate false "metric %s missing" name; None))
    units

let overhead ~untraced ~traced =
  List.map
    (fun t ->
      let u = List.find (fun mt -> mt.name = t.name) untraced in
      m ("overhead." ^ t.name) t.unit_ (t.value -. u.value))
    traced

type outcome = {
  e2e : metric list;  (** untraced end-to-end *)
  traced : (metric list * metric list) option;  (** traced end-to-end, layers *)
  attempted : int;
  failed : int;
  image : string option;  (** the serve image, when there is one *)
}

let serve_commit ~el_sim ~dir ~images ~seed ~seconds ~traced ~tiny ~plant =
  let fill_image, run_image, scratch_image =
    match images with
    | [ a; b; c ] -> (a, b, c)
    | _ ->
      prerr_endline "serve-commit needs --images FILL,RUN,SCRATCH";
      exit 2
  in
  let p =
    {
      Serve_wl.el_sim;
      dir;
      fill_image;
      run_image;
      scratch_image;
      seed;
      seconds;
      fill_txs = (if tiny then 200 else 10_000);
      warmup_txs = (if tiny then 50 else 500);
      segment_txs = (if tiny then 200 else 40_000);
      block_txs = (if tiny then 50 else 4_000);
      rewarm_txs = (if tiny then 5 else 20);
      sample = (if tiny then 20 else 500);
      plant;
    }
  in
  let e2e, tr = Serve_wl.workload p ~traced ~replay_txs:(if tiny then 50 else 2000) in
  {
    e2e;
    traced = tr;
    attempted = !Serve_wl.attempted;
    failed = !Serve_wl.failed;
    image = Some fill_image;
  }

let sim_paper ~seed ~seconds ~traced ~tiny ~plant =
  let runtime = El_model.Time.of_sec (if tiny then 20 else 500) in
  let run traced = Sim_wl.run ~seed ~runtime ~seconds ~traced ~plant in
  let plain = run false in
  let tr = if traced then Some (run true) else None in
  let all = plain :: Option.to_list tr in
  {
    e2e = Sim_wl.end_to_end plain;
    traced = Option.map (fun r -> (Sim_wl.end_to_end r, Sim_wl.layers r)) tr;
    attempted = sumi (List.map Sim_wl.attempted all);
    failed = sumi (List.map Sim_wl.failed all);
    image = None;
  }

let oracle_sweep ~seed ~seconds ~traced ~tiny ~plant =
  let runtime = El_model.Time.of_sec (if tiny then 4 else 20) in
  let min_points = if tiny then 5 else 50 in
  let run traced = Oracle_wl.run ~seed ~runtime ~seconds ~traced ~plant ~min_points in
  let plain = run false in
  let tr = if traced then Some (run true) else None in
  let all = plain :: Option.to_list tr in
  {
    e2e = Oracle_wl.end_to_end plain;
    traced = Option.map (fun r -> (Oracle_wl.end_to_end r, Oracle_wl.layers r)) tr;
    attempted = sumi (List.map Oracle_wl.attempted all);
    failed = sumi (List.map Oracle_wl.failed all);
    image = None;
  }

let workloads = [ "serve-commit"; "sim-paper"; "oracle-sweep" ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let el_sim = ref "" and dir = ref "" and tiny = ref false and plant = ref None in
  let images = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--el-sim", Arg.Set_string el_sim, "PATH the el-sim binary");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for sockets and logs");
      ( "--images",
        Arg.String (fun s -> images := String.split_on_char ',' s),
        "FILL,RUN,SCRATCH the serve images (in-memory files the launcher made)" );
      ("--tiny", Arg.Set tiny, " run at a tiny size (self-test)");
      ("--plant", Arg.String (fun s -> plant := Some s), "FAULT plant a fault (self-test)");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --el-sim PATH --dir DIR" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if
    (not (List.mem !workload workloads))
    || !seed < 0 || !seconds <= 0.0
    || (!trace <> 0 && !trace <> 1)
    || !el_sim = "" || !dir = ""
  then begin
    prerr_endline usage;
    exit 2
  end;
  at_exit Serve_wl.reap;
  let traced = !trace = 1 in
  let seconds = if traced then !seconds /. 2.0 else !seconds in
  let steal0 = steal_ticks () in
  let t0 = now_ns () in
  let o =
    let seed = !seed and tiny = !tiny and plant = !plant and dir = !dir in
    try
      match !workload with
      | "serve-commit" ->
        serve_commit ~el_sim:!el_sim ~dir ~images:!images ~seed ~seconds ~traced ~tiny ~plant
      | "sim-paper" -> sim_paper ~seed ~seconds ~traced ~tiny ~plant
      | _ -> oracle_sweep ~seed ~seconds ~traced ~tiny ~plant
    with e ->
      (* An exception out of the program is a failed run: no result. *)
      Printf.eprintf "perfbench: %s failed: %s\n%!" !workload (Printexc.to_string e);
      exit 1
  in
  let steal1 = steal_ticks () in
  let delta name =
    match (List.assoc_opt name steal0, List.assoc_opt name steal1) with
    | Some a, Some b -> string_of_int (b - a)
    | _ -> "null"
  in
  let cpus = cpus_allowed () in
  print_env
    [
      ("workload", json_string !workload);
      ("seed", string_of_int !seed);
      ("trace", string_of_int !trace);
      ("wall_s", json_float (secs_since t0));
      ("cpus", json_string cpus);
      ("sched_policy", match sched_policy () with Some n -> string_of_int n | None -> "null");
      ("steal_ticks_host", delta "cpu");
      ("steal_ticks_cpu", delta ("cpu" ^ cpus));
      ("image_fs", match o.image with Some i -> json_string (fs_type i) | None -> "null");
      ("kernel_ms", json_float (Speed.kernel_ms ()));
      ("kernel_nominal_ms", json_float (Speed.nominal_s *. 1e3));
    ];
  let e2e = canonical end_to_end_units ~fill:false o.e2e in
  let metrics =
    match o.traced with
    | None -> e2e
    | Some (traced_e2e, layers) ->
      let traced_e2e = canonical end_to_end_units ~fill:false traced_e2e in
      canonical layer_units ~fill:true (layers @ overhead ~untraced:e2e ~traced:traced_e2e)
  in
  let correct = print_result ~attempted:o.attempted ~failed:o.failed metrics in
  exit (if correct then 0 else 1)
