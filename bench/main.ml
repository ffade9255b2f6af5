(* Benchmark harness: regenerates every figure and in-text result of
   the paper's evaluation (§4) and runs Bechamel micro-benchmarks of
   the core machinery.

   Usage:
     bench/main.exe [--quick] [--jobs N] [--json PATH]
                    [fig4] [fig5] [fig6] [fig7]
                    [headline] [scarce] [rates] [recovery] [ablation]
                    [gens] [adaptive] [checkpoint] [poisson] [hotpath]
                    [store] [shards] [micro]

   With no selector, everything runs.  --quick shortens the simulated
   runs (120 s instead of the paper's 500 s) and coarsens sweeps; the
   shapes still hold, absolute numbers move slightly.  --jobs N runs
   the independent simulations behind each sweep on N domains (default
   1 = serial; tables and JSON are identical either way, see
   lib/par).  --json writes a machine-readable summary ("el-bench/1"
   schema) of every section that ran, for CI regression checks and
   committed baselines. *)

open El_model
module Table = El_metrics.Table
module Paper = El_harness.Paper
module Experiment = El_harness.Experiment
module Policy = El_core.Policy

let heading title = Printf.printf "\n==== %s ====\n\n" title
let fmt_f f = Printf.sprintf "%.2f" f
let fmt_f0 f = Printf.sprintf "%.0f" f

(* ---- machine-readable output (--json PATH) ----

   Sections accumulate as benches run; the same tables the terminal
   shows, as data.  The file is the "el-bench/1" schema consumed by
   the CI schema check and committed as BENCH_<date>.json. *)

module J = El_obs.Jsonx

(* The work pool behind every sweep; main swaps it for a real one
   when --jobs N > 1 is given.  Sections always collect results in
   submission order, so the output is identical at any job count. *)
let pool = ref El_par.Pool.serial

let json_sections : (string * J.t) list ref = ref []

(* Every object section records which durable-store backend produced
   it.  The paper benches run the pure simulation ("sim"); a section
   that measures a real store (e.g. [store]) carries its own
   "backend" field, which wins. *)
let section_backend = ref "sim"

let add_section name doc =
  let doc =
    match doc with
    | J.Obj fields when not (List.mem_assoc "backend" fields) ->
      J.Obj (("backend", J.String !section_backend) :: fields)
    | _ -> doc
  in
  if not (List.mem_assoc name !json_sections) then
    json_sections := !json_sections @ [ (name, doc) ]

let j_ints a = J.List (Array.to_list (Array.map (fun i -> J.Int i) a))

(* Allocation accounting: every section carries an "alloc" object with
   the GC words its workload allocated.  Unlike throughput rates —
   hopelessly noisy on a shared box — allocation counts are
   deterministic for a fixed seed and mode, so CI can regress them
   tightly. *)
let with_alloc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    J.Obj
      [
        ("minor_words", J.Float (s1.Gc.minor_words -. s0.Gc.minor_words));
        ("major_words", J.Float (s1.Gc.major_words -. s0.Gc.major_words));
        ( "promoted_words",
          J.Float (s1.Gc.promoted_words -. s0.Gc.promoted_words) );
      ] )

let mix_row_json (r : Paper.mix_row) =
  J.Obj
    [
      ("long_pct", J.Int r.long_pct);
      ("fw_blocks", J.Int r.fw_blocks);
      ("el_blocks", J.Int r.el_blocks);
      ("el_sizes", j_ints r.el_sizes);
      ("fw_bandwidth", J.Float r.fw_bandwidth);
      ("el_bandwidth", J.Float r.el_bandwidth);
      ("fw_memory", J.Int r.fw_memory);
      ("el_memory", J.Int r.el_memory);
      ("updates_per_sec", J.Float r.updates_per_sec);
    ]

(* Shared runs behind Figures 4, 5 and 6: computed once on demand. *)
let mix_rows : (Paper.speed, Paper.mix_row list) Hashtbl.t = Hashtbl.create 2

let get_mix_rows speed =
  match Hashtbl.find_opt mix_rows speed with
  | Some rows -> rows
  | None ->
    Printf.printf
      "(running the Fig. 4/5/6 minimum-space sweeps; this is the expensive \
       part)\n%!";
    let rows, alloc =
      with_alloc (fun () -> Paper.figs_4_5_6 ~pool:!pool ~speed ())
    in
    Hashtbl.replace mix_rows speed rows;
    add_section "mix_sweep"
      (J.Obj
         [ ("rows", J.List (List.map mix_row_json rows)); ("alloc", alloc) ]);
    rows

(* Paper reference series.  The text gives exact anchors at the 5 %
   mix; the remaining points are read off the published figures and
   are therefore approximate ("~").  We compare shapes, not decimals. *)
let paper_fig4_fw =
  [ (5, "123"); (10, "~130"); (20, "~145"); (30, "~155"); (40, "~165") ]

let paper_fig4_el =
  [ (5, "34"); (10, "~45"); (20, "~65"); (30, "~85"); (40, "~105") ]

let paper_fig5_fw =
  [ (5, "11.63"); (10, "~12.0"); (20, "~12.8"); (30, "~13.5"); (40, "~14.3") ]

let paper_fig5_el =
  [ (5, "12.87"); (10, "~13.5"); (20, "~14.8"); (30, "~16.0"); (40, "~17.2") ]

let ref_for table pct =
  match List.assoc_opt pct table with Some s -> s | None -> "-"

let fig4 speed =
  heading "Figure 4: minimum disk space (blocks) vs transaction mix";
  let t =
    Table.create
      ~columns:
        [
          ("% 10s tx", Table.Right);
          ("FW paper", Table.Right);
          ("FW measured", Table.Right);
          ("EL paper", Table.Right);
          ("EL measured", Table.Right);
          ("EL split", Table.Left);
          ("ratio", Table.Right);
        ]
  in
  List.iter
    (fun (r : Paper.mix_row) ->
      Table.add_row t
        [
          string_of_int r.long_pct;
          ref_for paper_fig4_fw r.long_pct;
          string_of_int r.fw_blocks;
          ref_for paper_fig4_el r.long_pct;
          string_of_int r.el_blocks;
          (match r.el_sizes with
          | [| a; b |] -> Printf.sprintf "%d+%d" a b
          | _ -> "-");
          fmt_f (float_of_int r.fw_blocks /. float_of_int r.el_blocks);
        ])
    (get_mix_rows speed);
  Table.print t;
  print_newline ();
  print_endline
    "Paper's shape: EL needs a fraction of FW's space; the advantage is\n\
     largest at 5% long transactions (factor 3.6) and narrows as the\n\
     long fraction grows."

let fig5 speed =
  heading "Figure 5: log disk bandwidth (block writes/s) vs transaction mix";
  let t =
    Table.create
      ~columns:
        [
          ("% 10s tx", Table.Right);
          ("FW paper", Table.Right);
          ("FW measured", Table.Right);
          ("EL paper", Table.Right);
          ("EL measured", Table.Right);
          ("EL overhead", Table.Right);
        ]
  in
  List.iter
    (fun (r : Paper.mix_row) ->
      Table.add_row t
        [
          string_of_int r.long_pct;
          ref_for paper_fig5_fw r.long_pct;
          fmt_f r.fw_bandwidth;
          ref_for paper_fig5_el r.long_pct;
          fmt_f r.el_bandwidth;
          Printf.sprintf "%.1f%%"
            ((r.el_bandwidth -. r.fw_bandwidth) /. r.fw_bandwidth *. 100.0);
        ])
    (get_mix_rows speed);
  Table.print t;
  print_newline ();
  print_endline
    "Paper's shape: EL writes slightly more than FW (11% at the 5% mix),\n\
     and the overhead grows with the fraction of long transactions."

let fig6 speed =
  heading "Figure 6: main-memory requirements (bytes) vs transaction mix";
  let t =
    Table.create
      ~columns:
        [
          ("% 10s tx", Table.Right);
          ("FW measured", Table.Right);
          ("EL measured", Table.Right);
          ("EL/FW", Table.Right);
        ]
  in
  List.iter
    (fun (r : Paper.mix_row) ->
      Table.add_row t
        [
          string_of_int r.long_pct;
          string_of_int r.fw_memory;
          string_of_int r.el_memory;
          fmt_f (float_of_int r.el_memory /. float_of_int r.fw_memory);
        ])
    (get_mix_rows speed);
  Table.print t;
  print_newline ();
  print_endline
    "Paper's shape: both are small (no numbers are given in the text; the\n\
     figure shows EL a small multiple of FW -- 'memory requirements are\n\
     modest'; FW pays 22 B/tx, EL 40 B/tx + 40 B/unflushed object)."

let fig7_cache : (Paper.speed, Paper.fig7_result) Hashtbl.t = Hashtbl.create 2

let get_fig7 speed =
  match Hashtbl.find_opt fig7_cache speed with
  | Some r -> r
  | None ->
    let r, alloc = with_alloc (fun () -> Paper.fig7 ~pool:!pool ~speed ()) in
    Hashtbl.replace fig7_cache speed r;
    add_section "fig7"
      (J.Obj
         [
           ("alloc", alloc);
           ("g0", J.Int r.g0);
           ("no_recirc_sizes", j_ints r.no_recirc_sizes);
           ( "rows",
             J.List
               (List.map
                  (fun (row : Paper.fig7_row) ->
                    J.Obj
                      [
                        ("g1", J.Int row.g1);
                        ("total_blocks", J.Int row.total_blocks);
                        ("bw_last", J.Float row.bw_last);
                        ("bw_total", J.Float row.bw_total);
                        ("feasible", J.Bool row.feasible);
                      ])
                  r.rows) );
         ]);
    r

let fig7 speed =
  heading
    "Figure 7: EL bandwidth vs disk space (recirculation on, 5% mix, gen 0 \
     fixed)";
  let result = get_fig7 speed in
  Printf.printf
    "no-recirculation starting point: %s blocks (gen0=%d fixed below)\n\n"
    (String.concat "+"
       (Array.to_list (Array.map string_of_int result.no_recirc_sizes)))
    result.g0;
  let t =
    Table.create
      ~columns:
        [
          ("gen1 blocks", Table.Right);
          ("total blocks", Table.Right);
          ("bw gen1 (w/s)", Table.Right);
          ("bw total (w/s)", Table.Right);
          ("feasible", Table.Left);
        ]
  in
  List.iter
    (fun (row : Paper.fig7_row) ->
      Table.add_row t
        [
          string_of_int row.g1;
          string_of_int row.total_blocks;
          fmt_f row.bw_last;
          fmt_f row.bw_total;
          (if row.feasible then "yes" else "no (kills)");
        ])
    result.rows;
  Table.print t;
  print_newline ();
  print_endline
    "Paper's anchors: space falls 34 -> 28 blocks while total bandwidth\n\
     rises only 12.87 -> 12.99 writes/s; shrinking further kills\n\
     transactions.";
  result

let headline speed =
  heading "In-text headline (5% mix): EL with recirculation vs FW";
  let h, alloc =
    with_alloc (fun () ->
        Paper.headline ~pool:!pool ~speed ~fig7_result:(get_fig7 speed) ())
  in
  let t =
    Table.create
      ~columns:
        [
          ("metric", Table.Left); ("paper", Table.Right); ("measured", Table.Right);
        ]
  in
  Table.add_row t [ "FW disk space (blocks)"; "123"; string_of_int h.fw_blocks ];
  Table.add_row t [ "FW bandwidth (w/s)"; "11.63"; fmt_f h.fw_bandwidth ];
  Table.add_row t [ "EL disk space (blocks)"; "28"; string_of_int h.el_blocks ];
  Table.add_row t
    [
      "EL split";
      "18+10";
      (match h.el_sizes with
      | [| a; b |] -> Printf.sprintf "%d+%d" a b
      | _ -> "-");
    ];
  Table.add_row t [ "EL bandwidth (w/s)"; "12.99"; fmt_f h.el_bandwidth ];
  Table.add_row t [ "space reduction factor"; "4.4"; fmt_f h.space_ratio ];
  Table.add_row t
    [
      "bandwidth increase";
      "12%";
      Printf.sprintf "%.1f%%" h.bandwidth_increase_pct;
    ];
  Table.print t;
  add_section "headline"
    (J.Obj
       [
         ("fw_blocks", J.Int h.fw_blocks);
         ("fw_bandwidth", J.Float h.fw_bandwidth);
         ("el_blocks", J.Int h.el_blocks);
         ("el_sizes", j_ints h.el_sizes);
         ("el_bandwidth", J.Float h.el_bandwidth);
         ("space_ratio", J.Float h.space_ratio);
         ("bandwidth_increase_pct", J.Float h.bandwidth_increase_pct);
         ("alloc", alloc);
       ])

let scarce speed =
  heading "In-text: scarce flushing bandwidth (10 drives x 45 ms = 222/s)";
  let s, alloc = with_alloc (fun () -> Paper.scarce_flush ~pool:!pool ~speed ()) in
  let t =
    Table.create
      ~columns:
        [
          ("metric", Table.Left); ("paper", Table.Right); ("measured", Table.Right);
        ]
  in
  Table.add_row t
    [ "EL disk space (blocks)"; "31"; string_of_int s.total_blocks ];
  Table.add_row t
    [
      "EL split";
      "20+11";
      (match s.el_sizes with
      | [| a; b |] -> Printf.sprintf "%d+%d" a b
      | _ -> "-");
    ];
  Table.add_row t [ "log bandwidth (w/s)"; "13.96"; fmt_f s.bandwidth ];
  Table.add_row t
    [ "mean flush oid distance"; "109,000"; fmt_f0 s.mean_flush_distance ];
  Table.add_row t
    [
      "same, 25 ms baseline";
      "235,000";
      fmt_f0 s.baseline_mean_flush_distance;
    ];
  Table.add_row t
    [ "peak flush backlog"; "-"; string_of_int s.flush_backlog_peak ];
  Table.print t;
  print_newline ();
  print_endline
    "Paper's shape: as the flush service rate approaches the update rate a\n\
     backlog accumulates, flush scheduling finds closer objects (smaller\n\
     mean oid distance = better locality), and EL absorbs it with a few\n\
     extra blocks -- the negative-feedback stability argument.";
  add_section "scarce"
    (J.Obj
       [
         ("el_sizes", j_ints s.el_sizes);
         ("total_blocks", J.Int s.total_blocks);
         ("bandwidth", J.Float s.bandwidth);
         ("mean_flush_distance", J.Float s.mean_flush_distance);
         ( "baseline_mean_flush_distance",
           J.Float s.baseline_mean_flush_distance );
         ("flush_backlog_peak", J.Int s.flush_backlog_peak);
         ("alloc", alloc);
       ]);
  s

let rates speed =
  heading "In-text: database update rate vs transaction mix";
  let t =
    Table.create
      ~columns:
        [
          ("% 10s tx", Table.Right);
          ("paper (upd/s)", Table.Right);
          ("measured (upd/s)", Table.Right);
        ]
  in
  let paper_rate =
    [ (5, "210"); (10, "220"); (20, "240"); (30, "260"); (40, "280") ]
  in
  List.iter
    (fun (r : Paper.mix_row) ->
      Table.add_row t
        [
          string_of_int r.long_pct;
          ref_for paper_rate r.long_pct;
          fmt_f0 r.updates_per_sec;
        ])
    (get_mix_rows speed);
  Table.print t

let recovery_bench speed =
  heading "Recovery (beyond the paper: it argues small log => fast recovery)";
  let runtime =
    match speed with `Full -> Time.of_sec 120 | `Quick -> Time.of_sec 60
  in
  let policy = Policy.default ~generation_sizes:[| 18; 12 |] in
  let cfg =
    {
      (Paper.base_config ~kind:(Experiment.Ephemeral policy) ~long_pct:5 ()) with
      Experiment.runtime;
    }
  in
  let crash_at = Time.mul_int (Time.div_int runtime 4) 3 in
  let (result, recovery, audit), alloc =
    with_alloc (fun () -> Experiment.run_with_crash cfg ~crash_at)
  in
  let t =
    Table.create ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t
    [ "log blocks configured"; string_of_int result.Experiment.total_blocks ];
  Table.add_row t
    [
      "records scanned at crash";
      string_of_int recovery.El_recovery.Recovery.records_scanned;
    ];
  Table.add_row t
    [ "redo applied"; string_of_int recovery.El_recovery.Recovery.redo_applied ];
  Table.add_row t
    [
      "committed txs in log";
      string_of_int (List.length recovery.El_recovery.Recovery.committed_tids);
    ];
  Table.add_row t
    [
      "audit";
      (if audit.El_recovery.Recovery.ok then "OK (atomic & durable)"
       else "FAILED");
    ];
  Table.print t;
  (* recovery-time estimates under the conservative early-90s cost
     model (15 ms positioning, 1 ms/block, 20 us/record) *)
  let el_time =
    El_recovery.Timing.single_pass ~regions:2
      ~blocks:result.Experiment.total_blocks
      ~records:recovery.El_recovery.Recovery.records_scanned ()
  in
  let fw_time =
    (* the paper's FW at this mix needs ~123 blocks and two passes *)
    El_recovery.Timing.fw_two_pass ~blocks:123
      ~records:(123 * 2000 / 110) ()
  in
  Format.printf
    "@.estimated restart time: EL single pass over %d blocks = %a;@ the \
     123-block FW span with a traditional two-pass method = %a.@ 'Recovery \
     in less than a second may be feasible' (Sec. 4) holds.@."
    result.Experiment.total_blocks El_recovery.Timing.pp el_time
    El_recovery.Timing.pp fw_time;
  add_section "recovery"
    (J.Obj
       [
         ("log_blocks", J.Int result.Experiment.total_blocks);
         ( "records_scanned",
           J.Int recovery.El_recovery.Recovery.records_scanned );
         ("redo_applied", J.Int recovery.El_recovery.Recovery.redo_applied);
         ( "committed_txs",
           J.Int (List.length recovery.El_recovery.Recovery.committed_tids) );
         ("audit_ok", J.Bool audit.El_recovery.Recovery.ok);
         ("el_restart_s", J.Float (Time.to_sec_f el_time));
         ("fw_restart_s", J.Float (Time.to_sec_f fw_time));
         ("alloc", alloc);
       ])

(* The same crash/recover run as [recovery], but on the real-bytes
   path: once per store backend, with the store replay cross-checked
   against the simulated recovery.  Reports the I/O the durability
   contract costs (pwrites, fsync barriers, bytes) and the wall-clock
   spread between mem and file. *)
let store_bench speed =
  heading "Durable store: mem vs file backends on the real-bytes path";
  let runtime =
    match speed with `Full -> Time.of_sec 60 | `Quick -> Time.of_sec 15
  in
  let crash_at = Time.mul_int (Time.div_int runtime 4) 3 in
  let policy = Policy.default ~generation_sizes:[| 18; 12 |] in
  let view (r : El_recovery.Recovery.result) =
    ( List.sort compare
        (El_disk.Stable_db.snapshot r.El_recovery.Recovery.recovered),
      List.sort compare
        (List.map Ids.Tid.to_int r.El_recovery.Recovery.committed_tids) )
  in
  let run_backend ?(group_fsync = false) backend =
    let cfg =
      {
        (Paper.base_config ~kind:(Experiment.Ephemeral policy) ~long_pct:5 ())
        with
        Experiment.runtime;
        backend;
        num_objects = 100_000;
        group_fsync;
      }
    in
    let t0 = Unix.gettimeofday () in
    let result, sim, audit, store = Experiment.run_with_crash_store cfg ~crash_at in
    let wall = Unix.gettimeofday () -. t0 in
    let agrees =
      match store with Some s -> view s = view sim | None -> false
    in
    (result, sim, audit, wall, agrees)
  in
  let with_image_dir f =
    let dir = Filename.temp_file "el-bench-store" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun x ->
            try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () -> f dir)
  in
  let runs, alloc =
    with_alloc (fun () ->
        with_image_dir (fun dir ->
            [
              ("mem", run_backend Experiment.Mem_store);
              ("file", run_backend (Experiment.File_store dir));
              ( "file+group",
                run_backend ~group_fsync:true (Experiment.File_store dir) );
            ]))
  in
  let t =
    Table.create
      ~columns:
        [
          ("backend", Table.Left);
          ("pwrites", Table.Right);
          ("fsyncs", Table.Right);
          ("MB written", Table.Right);
          ("wall s", Table.Right);
          ("replay agrees", Table.Left);
          ("audit", Table.Left);
        ]
  in
  List.iter
    (fun (name, (result, _sim, audit, wall, agrees)) ->
      Table.add_row t
        [
          name;
          string_of_int result.Experiment.store_pwrites;
          string_of_int result.Experiment.store_barriers;
          fmt_f
            (float_of_int result.Experiment.store_bytes_written /. 1048576.);
          fmt_f wall;
          (if agrees then "yes" else "DIVERGES");
          (if audit.El_recovery.Recovery.ok then "OK" else "FAILED");
        ])
    runs;
  Table.print t;
  let backends_identical =
    match runs with
    | (_, (_, sim0, _, _, _)) :: rest ->
      List.for_all (fun (_, (_, sim, _, _, _)) -> view sim = view sim0) rest
    | [] -> false
  in
  Format.printf
    "@.mem and file recover %s state; every ack came after pwrite+fsync.@."
    (if backends_identical then "identical" else "DIFFERENT (bug!)");
  let barriers name =
    match List.assoc_opt name runs with
    | Some ((result : Experiment.result), _, _, _, _) ->
      result.Experiment.store_barriers
    | None -> 0
  in
  let group_syncs =
    match List.assoc_opt "file+group" runs with
    | Some ((result : Experiment.result), _, _, _, _) ->
      result.Experiment.store_group_syncs
    | None -> 0
  in
  let immediate_barriers = barriers "file" in
  let grouped_barriers = barriers "file+group" in
  Printf.printf
    "group fsync: %d barriers (per-segment) -> %d (%d grouped waves), \
     %.1fx fewer\n"
    immediate_barriers grouped_barriers group_syncs
    (float_of_int immediate_barriers /. float_of_int (max 1 grouped_barriers));
  add_section "store"
    (J.Obj
       (("backend", J.String "mem+file")
       :: ("backends_identical", J.Bool backends_identical)
       :: ( "group_fsync",
            J.Obj
              [
                ("immediate_barriers", J.Int immediate_barriers);
                ("grouped_barriers", J.Int grouped_barriers);
                ("group_syncs", J.Int group_syncs);
                ( "barrier_reduction",
                  J.Float
                    (float_of_int immediate_barriers
                    /. float_of_int (max 1 grouped_barriers)) );
              ] )
       :: ("alloc", alloc)
       :: List.concat_map
            (fun (name, (result, sim, audit, wall, agrees)) ->
              [
                ( name,
                  J.Obj
                    [
                      ("pwrites", J.Int result.Experiment.store_pwrites);
                      ("barriers", J.Int result.Experiment.store_barriers);
                      ( "group_syncs",
                        J.Int result.Experiment.store_group_syncs );
                      ( "bytes_written",
                        J.Int result.Experiment.store_bytes_written );
                      ("wall_s", J.Float wall);
                      ("replay_agrees", J.Bool agrees);
                      ("audit_ok", J.Bool audit.El_recovery.Recovery.ok);
                      ( "committed_txs",
                        J.Int
                          (List.length sim.El_recovery.Recovery.committed_tids)
                      );
                    ] );
              ])
            runs))

(* One EL run per workload preset (beyond the paper: its evaluation
   only drives the polite two-type mix).  The geometry is the standard
   check EL chain scaled by each preset's space factor, so the rows
   show what adversity costs — contention aborts and retries under
   skew, kills and evictions under bursts and long tails — rather
   than whether a fixed log survives it. *)
let workloads_bench speed =
  heading "Adversarial workload presets (EL, standard check geometry)";
  let runtime =
    match speed with `Full -> Time.of_sec 240 | `Quick -> Time.of_sec 60
  in
  let kind = List.assoc "el" (El_check.Sweep.standard_kinds ()) in
  let t =
    Table.create
      ~columns:
        [
          ("scenario", Table.Left);
          ("blocks", Table.Right);
          ("committed", Table.Right);
          ("killed", Table.Right);
          ("c-aborts", Table.Right);
          ("retries", Table.Right);
          ("evictions", Table.Right);
          ("log w/s", Table.Right);
          ("lat ms", Table.Right);
        ]
  in
  let rows, alloc =
    with_alloc (fun () ->
    List.map
      (fun (p : El_workload.Workload_preset.t) ->
        let cfg =
          El_check.Sweep.standard_config ~kind ~runtime ~preset:p ()
        in
        let r = Experiment.run cfg in
        Table.add_row t
          [
            p.El_workload.Workload_preset.name;
            string_of_int r.Experiment.total_blocks;
            string_of_int r.Experiment.committed;
            string_of_int r.Experiment.killed;
            string_of_int r.Experiment.contention_aborts;
            string_of_int r.Experiment.contention_retries;
            string_of_int r.Experiment.evictions;
            fmt_f r.Experiment.log_write_rate;
            Printf.sprintf "%.1f" (r.Experiment.commit_latency_mean *. 1e3);
          ];
        J.Obj
          [
            ("name", J.String p.El_workload.Workload_preset.name);
            ("blocks", J.Int r.Experiment.total_blocks);
            ("committed", J.Int r.Experiment.committed);
            ("killed", J.Int r.Experiment.killed);
            ("contention_aborts", J.Int r.Experiment.contention_aborts);
            ("contention_retries", J.Int r.Experiment.contention_retries);
            ("evictions", J.Int r.Experiment.evictions);
            ("log_write_rate", J.Float r.Experiment.log_write_rate);
            ( "commit_latency_ms",
              J.Float (r.Experiment.commit_latency_mean *. 1e3) );
            ("feasible", J.Bool r.Experiment.feasible);
          ])
      El_workload.Workload_preset.all)
  in
  Table.print t;
  add_section "workloads" (J.Obj [ ("rows", J.List rows); ("alloc", alloc) ])

let ablation speed =
  heading "Ablations of EL design choices (5% mix, 18+12 blocks)";
  let base kind = Paper.base_config ~speed ~kind ~long_pct:5 () in
  let run_policy policy = Experiment.run (base (Experiment.Ephemeral policy)) in
  let sizes = [| 18; 12 |] in
  let default = Policy.default ~generation_sizes:sizes in
  let variants =
    [
      ("paper default (recirc, keep-in-log)", default);
      ("recirculation off", { default with Policy.recirculate = false });
      ( "force-flush at heads",
        { default with Policy.unflushed = Policy.Force_flush } );
      ( "no forwarding backfill",
        { default with Policy.forward_backfill = false } );
      ( "lifetime-hint placement (Sec. 6)",
        { default with Policy.placement = Policy.Lifetime_hint } );
      ( "eager group commit (1 ms timeout)",
        { default with Policy.group_commit_timeout = Some (Time.of_ms 1) } );
    ]
  in
  let t =
    Table.create
      ~columns:
        [
          ("variant", Table.Left);
          ("bw (w/s)", Table.Right);
          ("kills", Table.Right);
          ("forced flushes", Table.Right);
          ("fwd recs", Table.Right);
          ("recirc recs", Table.Right);
          ("mem (B)", Table.Right);
          ("latency (ms)", Table.Right);
        ]
  in
  let row name (r : Experiment.result) =
    Table.add_row t
      [
        name;
        fmt_f r.Experiment.log_write_rate;
        string_of_int r.Experiment.killed;
        string_of_int r.Experiment.forced_flushes;
        string_of_int r.Experiment.forwarded_records;
        string_of_int r.Experiment.recirculated_records;
        string_of_int r.Experiment.peak_memory_bytes;
        fmt_f (r.Experiment.commit_latency_mean *. 1000.0);
      ]
  in
  List.iter (fun (name, policy) -> row name (run_policy policy)) variants;
  (* flush-scheduling ablation: FIFO instead of nearest-oid *)
  let fifo =
    Experiment.run
      {
        (base (Experiment.Ephemeral default)) with
        Experiment.flush_scheduling = El_disk.Flush_array.Fifo;
        flush_transfer = El_model.Time.of_ms 45;
      }
  in
  let nearest =
    Experiment.run
      {
        (base (Experiment.Ephemeral default)) with
        Experiment.flush_transfer = El_model.Time.of_ms 45;
      }
  in
  row "45ms flushes, nearest-oid" nearest;
  row "45ms flushes, FIFO (ablation)" fifo;
  Table.print t;
  print_newline ();
  Printf.printf
    "flush locality under scarcity: nearest-oid scheduling drops the mean \n\
     seek to %.0f oids where FIFO stays fully random at %.0f -- the choice \n\
     behind the paper's locality feedback (Sec. 4).\n"
    nearest.Experiment.flush_mean_distance fifo.Experiment.flush_mean_distance


let gens_sweep speed =
  heading
    "Beyond the paper: minimum disk space vs number of generations (5% mix)";
  let rows, alloc =
    with_alloc (fun () -> Paper.generation_count_sweep ~pool:!pool ~speed ())
  in
  let t =
    Table.create
      ~columns:
        [
          ("generations", Table.Right);
          ("best sizes", Table.Left);
          ("total blocks", Table.Right);
          ("bw (w/s)", Table.Right);
        ]
  in
  List.iter
    (fun (r : Paper.gens_row) ->
      Table.add_row t
        [
          string_of_int r.generations;
          String.concat "+" (Array.to_list (Array.map string_of_int r.sizes));
          string_of_int r.total;
          fmt_f r.bandwidth;
        ])
    rows;
  Table.print t;
  print_newline ();
  print_endline
    "Chain length is a space/bandwidth dial: a single ring can be squeezed\n\
     smallest but only by recirculating furiously (~2x the write rate);\n\
     more generations spend a few blocks to cut the rewrite traffic --\n\
     Sec. 6's point that the optimal number and sizes are\n\
     application-dependent.";
  add_section "generation_sweep"
    (J.Obj
       [
         ( "rows",
           J.List
             (List.map
                (fun (r : Paper.gens_row) ->
                  J.Obj
                    [
                      ("generations", J.Int r.generations);
                      ("sizes", j_ints r.sizes);
                      ("total", J.Int r.total);
                      ("bandwidth", J.Float r.bandwidth);
                    ])
                rows) );
         ("alloc", alloc);
       ])

let adaptive_bench speed =
  heading
    "Beyond the paper: adaptive generation sizing (the Sec. 6 wish)";
  let cfg =
    {
      (Paper.base_config ~speed ~kind:(Experiment.Firewall 1) ~long_pct:5 ()) with
      Experiment.runtime =
        (match speed with
        | `Full -> El_model.Time.of_sec 120
        | `Quick -> El_model.Time.of_sec 60);
    }
  in
  (* allow at most 25% more log bandwidth than the generous baseline:
     the controller then stops near the paper's knee instead of
     squeezing into the furious-recirculation regime *)
  let outcome =
    El_harness.Adaptive.tune cfg ~initial:[| 30; 60 |] ~bandwidth_slack:1.25 ()
  in
  let t =
    Table.create
      ~columns:
        [
          ("epoch", Table.Right);
          ("sizes tried", Table.Left);
          ("healthy", Table.Left);
          ("bw (w/s)", Table.Right);
        ]
  in
  List.iter
    (fun (s : El_harness.Adaptive.step) ->
      Table.add_row t
        [
          string_of_int s.epoch;
          String.concat "+" (Array.to_list (Array.map string_of_int s.sizes));
          (if s.healthy then "yes"
           else if not s.feasible then Printf.sprintf "no (%d kills)" s.killed
           else "no (bandwidth budget)");
          fmt_f s.bandwidth;
        ])
    outcome.El_harness.Adaptive.trajectory;
  Table.print t;
  Printf.printf
    "\nconverged to %s blocks in %d epochs with no workload model -- the\n\
     'adaptable version of EL that dynamically chooses the sizes itself'\n\
     that Sec. 6 asks for, realised as a shrink-until-pushback controller.\n"
    (String.concat "+"
       (Array.to_list
          (Array.map string_of_int outcome.El_harness.Adaptive.final_sizes)))
    outcome.El_harness.Adaptive.epochs_used

let checkpoint_bench speed =
  heading
    "Beyond the paper: what ignoring FW's checkpoints hides (5% mix)";
  let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
  let runtime =
    match speed with
    | `Full -> El_model.Time.of_sec 300
    | `Quick -> El_model.Time.of_sec 120
  in
  let ideal =
    Experiment.run
      {
        (Experiment.default_config ~kind:(Experiment.Firewall 512) ~mix) with
        Experiment.runtime = runtime;
      }
  in
  let run_ckpt interval_s cost =
    let engine = El_sim.Engine.create () in
    let fw =
      El_core.Fw_manager.create engine ~size_blocks:512
        ~checkpointing:
          {
            El_core.Fw_manager.interval = El_model.Time.of_sec interval_s;
            cost_blocks = cost;
          }
        ()
    in
    let manager = Experiment.Fw_log fw in
    let generator =
      El_workload.Generator.create engine
        ~sink:(Experiment.sink_of manager)
        ~mix ~arrival_rate:100.0 ~runtime
        ~num_objects:El_model.Params.num_objects ()
    in
    Experiment.set_on_kill manager (El_workload.Generator.kill generator);
    El_sim.Engine.run engine ~until:runtime;
    El_core.Fw_manager.stats fw
  in
  let t =
    Table.create
      ~columns:
        [
          ("FW variant", Table.Left);
          ("peak blocks", Table.Right);
          ("log writes/s", Table.Right);
          ("checkpoints", Table.Right);
        ]
  in
  let seconds = El_model.Time.to_sec_f runtime in
  Table.add_row t
    [
      "paper's ideal (none)";
      string_of_int
        (match ideal.Experiment.stats with
        | [ Experiment.Fw_log_stats s ] -> s.El_core.Fw_manager.peak_occupancy
        | _ -> 0);
      fmt_f ideal.Experiment.log_write_rate;
      "0";
    ]
  ;
  List.iter
    (fun (interval_s, cost) ->
      let s = run_ckpt interval_s cost in
      Table.add_row t
        [
          Printf.sprintf "every %ds, %d blocks" interval_s cost;
          string_of_int s.El_core.Fw_manager.peak_occupancy;
          fmt_f (float_of_int s.El_core.Fw_manager.log_writes /. seconds);
          string_of_int s.El_core.Fw_manager.checkpoints;
        ])
    [ (30, 4); (10, 4); (2, 4) ];
  Table.print t;
  print_newline ();
  print_endline
    "The paper notes its FW baseline omits checkpointing and that 'this\n\
     omission favors FW'.  Modelled: committed records stay REDO-relevant\n\
     until the next checkpoint, so sparse checkpoints inflate FW's space\n\
     while frequent ones inflate its bandwidth.  EL needs neither."

let poisson_bench speed =
  heading "Beyond the paper: deterministic vs Poisson arrivals (5% mix)";
  let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
  let runtime =
    match speed with
    | `Full -> El_model.Time.of_sec 300
    | `Quick -> El_model.Time.of_sec 120
  in
  let cfg process =
    {
      (Experiment.default_config ~kind:(Experiment.Firewall 512) ~mix) with
      Experiment.runtime = runtime;
      arrival_process = process;
    }
  in
  let el_cfg process sizes =
    {
      (cfg process) with
      Experiment.kind =
        Experiment.Ephemeral (Policy.default ~generation_sizes:sizes);
    }
  in
  let t =
    Table.create
      ~columns:
        [
          ("arrivals", Table.Left);
          ("FW peak blocks", Table.Right);
          ("EL 18+16 feasible", Table.Left);
          ("EL kills", Table.Right);
        ]
  in
  List.iter
    (fun (name, process) ->
      let fw = Experiment.run (cfg process) in
      let el = Experiment.run (el_cfg process [| 18; 16 |]) in
      Table.add_row t
        [
          name;
          string_of_int
            (match fw.Experiment.stats with
            | [ Experiment.Fw_log_stats s ] ->
              s.El_core.Fw_manager.peak_occupancy
            | _ -> 0);
          (if el.Experiment.feasible then "yes" else "no");
          string_of_int el.Experiment.killed;
        ])
    [
      ("deterministic (paper)", El_workload.Generator.Deterministic);
      ("Poisson", El_workload.Generator.Poisson);
    ];
  Table.print t;
  print_newline ();
  print_endline
    "The paper calls its regular arrivals 'sufficient for a first order\n\
     evaluation' and defers probabilistic models.  Under Poisson bursts\n\
     both schemes need a little headroom beyond the deterministic minima."

(* ---- hot-path micro-benchmarks: the structures the O(log n)
   refactor made sub-linear, measured directly ---- *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let hotpath speed =
  heading "Hot-path micro-benchmarks (flush dispatch, ledger indexes, appends)";
  let gc0 = Gc.quick_stat () in
  let module F = El_disk.Flush_array in
  let module Engine = El_sim.Engine in
  let objects = 1_000_000 in
  (* 1. Flush-backlog dispatch throughput: enqueue B requests on one
     drive, then drain.  Every service is one scheduling pick — O(B)
     under Reference, O(log B) under Indexed — so the drain isolates
     pick cost. *)
  let drain impl backlog =
    let e = Engine.create () in
    let f =
      F.create e ~drives:1 ~transfer_time:(Time.of_us 1) ~num_objects:objects
        ~implementation:impl ()
    in
    F.set_on_flush f (fun _ ~version:_ -> ());
    let x = ref 88172645463325252 in
    for _ = 1 to backlog do
      (* xorshift: deterministic, seed-independent oid stream *)
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      F.request f (Ids.Oid.of_int (abs !x mod objects)) ~version:1
    done;
    let (), secs = wall (fun () -> Engine.run_all e) in
    F.check_invariants f;
    (float_of_int (F.picks f) /. secs, secs)
  in
  let backlogs =
    match speed with
    | `Quick -> [ 1_000; 10_000 ]
    | `Full -> [ 1_000; 10_000; 50_000 ]
  in
  let t =
    Table.create
      ~columns:
        [
          ("backlog", Table.Right);
          ("Reference picks/s", Table.Right);
          ("Indexed picks/s", Table.Right);
          ("speedup", Table.Right);
        ]
  in
  let dispatch_rows =
    List.map
      (fun b ->
        let ref_rate, _ = drain F.Reference b in
        let idx_rate, _ = drain F.Indexed b in
        let speedup = idx_rate /. ref_rate in
        Table.add_row t
          [
            string_of_int b;
            fmt_f0 ref_rate;
            fmt_f0 idx_rate;
            fmt_f speedup ^ "x";
          ];
        J.Obj
          [
            ("backlog", J.Int b);
            ("reference_picks_per_sec", J.Float ref_rate);
            ("indexed_picks_per_sec", J.Float idx_rate);
            ("speedup", J.Float speedup);
          ])
      backlogs
  in
  Table.print t;
  print_newline ();
  (* 2. Ledger throughput with a large active window: every iteration
     consults oldest_active and live_cells, which the incremental
     indexes serve in O(1) instead of full LOT/LTT walks. *)
  let ledger_ops () =
    let module L = El_core.Ledger in
    let l = L.create ~remove_cell:(fun _ -> ()) () in
    let window = 10_000 in
    let iters = match speed with `Quick -> 30_000 | `Full -> 100_000 in
    let ops = ref 0 in
    let w0 = Gc.minor_words () in
    let (), secs =
      wall (fun () ->
          for i = 0 to iters - 1 do
            let tid = Ids.Tid.of_int i in
            ignore
              (L.begin_tx l ~tid ~expected_duration:(Time.of_sec 1)
                 ~timestamp:(Time.of_us i) ~size:8);
            ignore
              (L.write_data l ~tid
                 ~oid:(Ids.Oid.of_int (i * 7919 mod 500_000))
                 ~version:i ~size:100 ~timestamp:(Time.of_us i));
            ignore (L.oldest_active l);
            ignore (L.live_cells l);
            ops := !ops + 4;
            if i >= window then begin
              let victim = Ids.Tid.of_int (i - window) in
              ignore
                (L.request_commit l ~tid:victim ~timestamp:(Time.of_us i)
                   ~size:8);
              let to_flush = L.commit_durable l ~tid:victim in
              List.iter
                (fun (oid, version) ->
                  ignore (L.flush_complete l ~oid ~version))
                to_flush;
              ops := !ops + 2 + List.length to_flush
            end
          done;
          (* drain the remaining window through the O(1) victim head *)
          let continue = ref true in
          while !continue do
            match L.oldest_active l with
            | None -> continue := false
            | Some e ->
              L.kill l ~tid:e.El_core.Cell.e_tid;
              ops := !ops + 2
          done)
    in
    L.check_invariants l;
    let words_per_op = (Gc.minor_words () -. w0) /. float_of_int !ops in
    (float_of_int !ops /. secs, !ops, words_per_op)
  in
  let ledger_rate, ledger_total, ledger_words = ledger_ops () in
  Printf.printf
    "ledger: %s ops/s (%d begin/write/commit/kill ops, 10k-tx active window, \
     %.2f minor words/op)\n\n"
    (fmt_f0 ledger_rate) ledger_total ledger_words;
  (* 3. Hybrid long-transaction appends: stub accumulation is O(1)
     amortised (prepend + lazy reverse) where it used to rebuild the
     whole list per record. *)
  let hybrid_append len =
    let e = Engine.create () in
    let flush =
      F.create e ~drives:1 ~transfer_time:(Time.of_us 1) ~num_objects:objects ()
    in
    let stable = El_disk.Stable_db.create ~num_objects:objects in
    let queue = (len * 100 / El_model.Params.block_payload) + 16 in
    let h =
      El_core.Hybrid_manager.create e ~queue_sizes:[| queue |] ~flush ~stable ()
    in
    let tid = Ids.Tid.of_int 1 in
    El_core.Hybrid_manager.begin_tx h ~tid ~expected_duration:(Time.of_sec 10);
    let w0 = Gc.minor_words () in
    let (), secs =
      wall (fun () ->
          for i = 1 to len do
            El_core.Hybrid_manager.write_data h ~tid ~oid:(Ids.Oid.of_int i)
              ~version:i ~size:100
          done)
    in
    let words = (Gc.minor_words () -. w0) /. float_of_int len in
    Engine.run_all e;
    (float_of_int len /. secs, words)
  in
  let lengths =
    match speed with
    | `Quick -> [ 1_000; 5_000 ]
    | `Full -> [ 1_000; 5_000; 20_000 ]
  in
  (* single-shot appends are noisy on a loaded box; keep the best of a
     few repetitions, which is the machine's actual capability *)
  let append_reps = match speed with `Quick -> 2 | `Full -> 5 in
  let append_rows =
    List.map
      (fun len ->
        (* settle the major collector: the earlier bench stages leave
           floating garbage whose incremental slices would otherwise be
           charged to this loop's allocations *)
        Gc.compact ();
        let best = ref 0.0 and words = ref infinity in
        for _ = 1 to append_reps do
          let rate, w = hybrid_append len in
          if rate > !best then best := rate;
          if w < !words then words := w
        done;
        Printf.printf
          "hybrid append: %6d-record tx  %12s records/s  %.2f minor words/record\n"
          len (fmt_f0 !best) !words;
        J.Obj
          [
            ("records", J.Int len);
            ("records_per_sec", J.Float !best);
            ("minor_words_per_record", J.Float !words);
          ])
      lengths
  in
  print_newline ();
  (* 4. Whole-simulation wall-clock on the scarce-flush scenario (the
     deepest backlog any paper figure builds), Reference vs Indexed,
     with a result-identity check: the elevator must change how fast
     the answer arrives, never the answer. *)
  let scarce_cfg impl =
    {
      (Paper.base_config ~speed
         ~kind:
           (Experiment.Ephemeral (Policy.default ~generation_sizes:[| 24; 7 |]))
         ~long_pct:5 ()) with
      Experiment.flush_transfer = Time.of_ms 45;
      Experiment.flush_impl = impl;
    }
  in
  (* Wall-clock flips sign run-to-run under ±10-20% machine noise, so
     each implementation gets best-of-2 and the regression field below
     carries a generous 1.25x tolerance; the allocation counts are the
     tight, deterministic regression signal. *)
  let run_scarce impl =
    let cfg = scarce_cfg impl in
    let w0 = Gc.minor_words () in
    let r, secs = wall (fun () -> Experiment.run cfg) in
    let words_per_tx =
      (Gc.minor_words () -. w0) /. float_of_int (max 1 r.Experiment.committed)
    in
    (r, secs, words_per_tx)
  in
  let best_of impl =
    let r, secs0, words = run_scarce impl in
    let best = ref secs0 in
    let _, secs1, _ = run_scarce impl in
    if secs1 < !best then best := secs1;
    (r, !best, words)
  in
  let r_ref, ref_secs, ref_words = best_of El_disk.Flush_array.Reference in
  let r_idx, idx_secs, idx_words = best_of El_disk.Flush_array.Indexed in
  let identical = Marshal.to_string r_ref [] = Marshal.to_string r_idx [] in
  let indexed_not_slower = idx_secs <= 1.25 *. ref_secs in
  Printf.printf
    "scarce-flush wall-clock: Reference %.3fs (%.0f words/tx), Indexed %.3fs \
     (%.0f words/tx) (results %s)\n"
    ref_secs ref_words idx_secs idx_words
    (if identical then "identical" else "DIVERGED");
  if not identical then failwith "hotpath: Reference/Indexed results diverged";
  let gc1 = Gc.quick_stat () in
  add_section "hotpath"
    (J.Obj
       [
         ("dispatch", J.List dispatch_rows);
         ( "ledger",
           J.Obj
             [
               ("ops_per_sec", J.Float ledger_rate);
               ("ops", J.Int ledger_total);
               ("minor_words_per_op", J.Float ledger_words);
             ] );
         ("hybrid_append", J.List append_rows);
         ( "scarce_wallclock",
           J.Obj
             [
               ("reference_secs", J.Float ref_secs);
               ("indexed_secs", J.Float idx_secs);
               ("reference_words_per_tx", J.Float ref_words);
               ("indexed_words_per_tx", J.Float idx_words);
               ("indexed_not_slower", J.Bool indexed_not_slower);
               ("results_identical", J.Bool identical);
             ] );
         ( "alloc",
           J.Obj
             [
               ( "minor_words",
                 J.Float (gc1.Gc.minor_words -. gc0.Gc.minor_words) );
               ( "major_words",
                 J.Float (gc1.Gc.major_words -. gc0.Gc.major_words) );
               ( "promoted_words",
                 J.Float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) );
             ] );
       ])

(* ---- multi-shard scale-out: oid-range partitions + cross-shard 2PC
   (lib/shard) ---- *)

module Shard_group = El_shard.Shard_group

let shard_cfg ~runtime ~rate ~objects ~drives ~gens ~shards ~seed =
  let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
  let policy = Policy.default ~generation_sizes:gens in
  {
    (Experiment.default_config ~kind:(Experiment.Ephemeral policy) ~mix) with
    Experiment.arrival_rate = rate;
    runtime = Time.of_sec_f runtime;
    flush_drives = drives;
    num_objects = objects;
    seed;
    shards;
  }

let shard_row cfg =
  let t0 = Unix.gettimeofday () in
  let rr = Shard_group.run cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let shard_committed =
    Array.map (fun (s : Shard_group.shard_stat) -> s.Shard_group.ss_committed)
      rr.Shard_group.r_shards
  in
  let sum = Array.fold_left ( + ) 0 shard_committed in
  (* Commit conservation is the sharding correctness anchor CI pins on
     the emitted JSON: every acknowledged transaction commits on
     exactly one shard (its own, or its 2PC coordinator). *)
  if sum <> rr.Shard_group.r_global.Experiment.committed then
    failwith
      (Printf.sprintf
         "shard bench: per-shard commits (%d) do not sum to global (%d)" sum
         rr.Shard_group.r_global.Experiment.committed);
  (rr, shard_committed, wall)

let shards_bench speed =
  heading "Multi-shard scale-out: oid-range partitions with cross-shard 2PC";
  let runtime = match speed with `Full -> 300.0 | `Quick -> 60.0 in
  let counts = [ 1; 2; 4 ] in
  let sweep_row n =
    shard_row
      (shard_cfg ~runtime ~rate:150.0 ~objects:100_000 ~drives:16
         ~gens:[| 64; 48 |] ~shards:n ~seed:42)
  in
  let (rows, alloc) =
    with_alloc (fun () -> List.map (fun n -> (n, sweep_row n)) counts)
  in
  let t =
    Table.create
      ~columns:
        [
          ("shards", Table.Right);
          ("committed", Table.Right);
          ("singles", Table.Right);
          ("2pc commits", Table.Right);
          ("prepares", Table.Right);
          ("blocked", Table.Right);
          ("per-shard commits", Table.Left);
          ("log w/s", Table.Right);
          ("wall s", Table.Right);
        ]
  in
  List.iter
    (fun (n, ((rr : Shard_group.run_result), shard_committed, wall)) ->
      Table.add_row t
        [
          string_of_int n;
          string_of_int rr.Shard_group.r_global.Experiment.committed;
          string_of_int rr.Shard_group.r_single_committed;
          string_of_int rr.Shard_group.r_cross_committed;
          string_of_int rr.Shard_group.r_prepares;
          string_of_int rr.Shard_group.r_blocked;
          String.concat "+"
            (Array.to_list (Array.map string_of_int shard_committed));
          fmt_f rr.Shard_group.r_global.Experiment.log_write_rate;
          fmt_f wall;
        ])
    rows;
  Table.print t;
  print_newline ();
  print_endline
    "Fixed load split across N plants: every acknowledged transaction\n\
     commits on exactly one shard, cross-shard transactions pay one\n\
     PREPARE marker per branch plus a decision record on their\n\
     coordinator.";
  (* The scale headline: a million-object database on four plants.
     The measured run commits what the simulated runtime admits; the
     10^7-transaction figure is a labelled extrapolation from the
     measured wall-clock per committed transaction, not a measured
     run. *)
  let h_rate, h_runtime =
    match speed with `Full -> (2000.0, 300.0) | `Quick -> (1000.0, 60.0)
  in
  let h_cfg =
    shard_cfg ~runtime:h_runtime ~rate:h_rate ~objects:1_000_000 ~drives:128
      ~gens:[| 320; 256 |] ~shards:4 ~seed:42
  in
  let (hr, h_shard_committed, h_wall), h_alloc =
    with_alloc (fun () -> shard_row h_cfg)
  in
  let h_committed = hr.Shard_group.r_global.Experiment.committed in
  let target_tx = 10_000_000 in
  let extrapolated_wall =
    h_wall *. (float_of_int target_tx /. float_of_int (max 1 h_committed))
  in
  let ht =
    Table.create ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row ht [ "objects"; "1,000,000" ];
  Table.add_row ht [ "shards"; "4" ];
  Table.add_row ht [ "committed (measured)"; string_of_int h_committed ];
  Table.add_row ht
    [
      "cross-shard commits";
      string_of_int hr.Shard_group.r_cross_committed;
    ];
  Table.add_row ht
    [
      "updates/s";
      fmt_f hr.Shard_group.r_global.Experiment.updates_per_sec;
    ];
  Table.add_row ht [ "wall s (measured)"; fmt_f h_wall ];
  Table.add_row ht
    [
      "wall s to 10^7 tx (extrapolated)";
      fmt_f extrapolated_wall;
    ];
  Table.print ht;
  add_section "shards"
    (J.Obj
       [
         ( "sweep",
           J.List
             (List.map
                (fun (n, ((rr : Shard_group.run_result), sc, wall)) ->
                  J.Obj
                    [
                      ("shards", J.Int n);
                      ( "committed",
                        J.Int rr.Shard_group.r_global.Experiment.committed );
                      ( "single_committed",
                        J.Int rr.Shard_group.r_single_committed );
                      ( "cross_committed",
                        J.Int rr.Shard_group.r_cross_committed );
                      ("prepares", J.Int rr.Shard_group.r_prepares);
                      ("blocked", J.Int rr.Shard_group.r_blocked);
                      ("shard_committed", j_ints sc);
                      ( "log_write_rate",
                        J.Float rr.Shard_group.r_global.Experiment.log_write_rate
                      );
                      ("wall_s", J.Float wall);
                    ])
                rows) );
         ( "headline",
           J.Obj
             [
               ("objects", J.Int 1_000_000);
               ("shards", J.Int 4);
               ("committed", J.Int h_committed);
               ("cross_committed", J.Int hr.Shard_group.r_cross_committed);
               ("shard_committed", j_ints h_shard_committed);
               ( "updates_per_sec",
                 J.Float hr.Shard_group.r_global.Experiment.updates_per_sec );
               ("wall_s", J.Float h_wall);
               ("target_tx", J.Int target_tx);
               ("extrapolated_wall_s_to_target", J.Float extrapolated_wall);
               ("extrapolated", J.Bool true);
               ("alloc", h_alloc);
             ] );
         ("alloc", alloc);
       ])

(* ---- Bechamel micro-benchmarks: one Test.make per figure/table plus
   the core data structures ---- *)

let micro () =
  heading "Bechamel micro-benchmarks (simulator and data structures)";
  let open Bechamel in
  let open Toolkit in
  let short_sim kind =
    Staged.stage (fun () ->
        let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
        let cfg =
          {
            (Experiment.default_config ~kind ~mix) with
            Experiment.runtime = El_model.Time.of_sec 5;
          }
        in
        ignore (Experiment.run cfg))
  in
  let test_fig4_fw =
    Test.make ~name:"fig4/5/6: FW 5s sim (123 blocks)"
      (short_sim (Experiment.Firewall 123))
  in
  let test_fig4_el =
    Test.make ~name:"fig4/5/6: EL 5s sim (18+16, no recirc)"
      (short_sim
         (Experiment.Ephemeral
            {
              (Policy.default ~generation_sizes:[| 18; 16 |]) with
              Policy.recirculate = false;
            }))
  in
  let test_fig7 =
    Test.make ~name:"fig7/headline: EL 5s sim (18+10, recirc)"
      (short_sim
         (Experiment.Ephemeral (Policy.default ~generation_sizes:[| 18; 10 |])))
  in
  let test_scarce =
    Test.make ~name:"scarce: EL 5s sim (45 ms flushes)"
      (Staged.stage (fun () ->
           let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
           let cfg =
             {
               (Experiment.default_config
                  ~kind:
                    (Experiment.Ephemeral
                       (Policy.default ~generation_sizes:[| 20; 11 |]))
                  ~mix) with
               Experiment.runtime = El_model.Time.of_sec 5;
               Experiment.flush_transfer = El_model.Time.of_ms 45;
             }
           in
           ignore (Experiment.run cfg)))
  in
  let test_event_queue =
    Test.make ~name:"event queue: 1k push+pop"
      (Staged.stage (fun () ->
           let q = El_sim.Event_queue.create () in
           for i = 0 to 999 do
             El_sim.Event_queue.push q ~time:(i * 7919 mod 1000) i
           done;
           while not (El_sim.Event_queue.is_empty q) do
             ignore (El_sim.Event_queue.pop q)
           done))
  in
  let test_recovery =
    Test.make ~name:"recovery: single pass over a crash image"
      (Staged.stage
         (let policy = Policy.default ~generation_sizes:[| 18; 12 |] in
          let cfg =
            {
              (Experiment.default_config
                 ~kind:(Experiment.Ephemeral policy)
                 ~mix:(El_workload.Mix.short_long ~long_fraction:0.05)) with
              Experiment.runtime = El_model.Time.of_sec 60;
            }
          in
          let live = Experiment.prepare cfg in
          El_sim.Engine.run live.Experiment.engine ~until:(El_model.Time.of_sec 45);
          let image =
            match live.Experiment.manager with
            | Experiment.El_log m ->
              El_recovery.Recovery.crash live.Experiment.engine m
            | Experiment.Fw_log _ | Experiment.Hybrid_log _ ->
              invalid_arg "recovery bench: EL only"
          in
          fun () -> ignore (El_recovery.Recovery.recover image)))
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) ~kde:None () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-45s %12.0f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-45s (no estimate)\n%!" name)
        results)
    [
      test_fig4_fw;
      test_fig4_el;
      test_fig7;
      test_scarce;
      test_event_queue;
      test_recovery;
    ]

(* pulls "--json PATH" (anywhere in the argument list) out of [args] *)
let rec extract_json acc = function
  | [] -> (None, List.rev acc)
  | [ "--json" ] ->
    prerr_endline "bench: --json needs a path argument";
    exit 2
  | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
  | a :: rest -> extract_json (a :: acc) rest

(* pulls "--jobs N" (anywhere in the argument list) out of [args] *)
let rec extract_jobs acc = function
  | [] -> (1, List.rev acc)
  | [ "--jobs" ] ->
    prerr_endline "bench: --jobs needs a worker count";
    exit 2
  | "--jobs" :: n :: rest -> (
    match int_of_string_opt n with
    | Some jobs when jobs >= 1 -> (jobs, List.rev_append acc rest)
    | Some _ | None ->
      prerr_endline ("bench: bad --jobs count: " ^ n);
      exit 2)
  | a :: rest -> extract_jobs (a :: acc) rest

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json_path, args = extract_json [] args in
  let jobs, args = extract_jobs [] args in
  pool := El_par.Pool.create ~jobs;
  at_exit (fun () -> El_par.Pool.shutdown !pool);
  let quick = List.mem "--quick" args in
  let speed : Paper.speed = if quick then `Quick else `Full in
  let selectors = List.filter (fun a -> a <> "--quick") args in
  let all = selectors = [] in
  let want s = all || List.mem s selectors in
  Printf.printf
    "Ephemeral Logging (Keen & Dally, SIGMOD 1993) -- evaluation reproduction\n";
  Printf.printf "mode: %s, %s\n"
    (match speed with
    | `Full -> "full (500s simulated runs, paper parameters)"
    | `Quick -> "quick (120s simulated runs)")
    (if jobs = 1 then "serial" else Printf.sprintf "%d jobs" jobs);
  if want "fig4" then fig4 speed;
  if want "fig5" then fig5 speed;
  if want "fig6" then fig6 speed;
  if want "rates" then rates speed;
  if want "fig7" then ignore (fig7 speed);
  if want "headline" then headline speed;
  if want "scarce" then ignore (scarce speed);
  if want "recovery" then recovery_bench speed;
  if want "store" then store_bench speed;
  if want "workloads" then workloads_bench speed;
  if want "ablation" then ablation speed;
  if want "gens" then gens_sweep speed;
  if want "adaptive" then adaptive_bench speed;
  if want "checkpoint" then checkpoint_bench speed;
  if want "poisson" then poisson_bench speed;
  if want "hotpath" then hotpath speed;
  if want "shards" then shards_bench speed;
  if want "micro" then micro ();
  match json_path with
  | None -> ()
  | Some path ->
    let doc =
      J.Obj
        [
          ("schema", J.String "el-bench/1");
          ( "mode",
            J.String (match speed with `Full -> "full" | `Quick -> "quick") );
          ("jobs", J.Int jobs);
          ( "selectors",
            J.List
              (List.map
                 (fun s -> J.String s)
                 (if all then [ "all" ] else selectors)) );
          ("sections", J.Obj !json_sections);
        ]
    in
    let oc = open_out path in
    output_string oc (J.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nwrote %s\n" path
