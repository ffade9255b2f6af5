(* Adversarial scenario presets: determinism, accounting conservation,
   contention counters, and regressions for the two latent bugs the
   workload matrix exposed (the hybrid self-supersede double count and
   the EL forward-origin durability race). *)

open El_model
module Experiment = El_harness.Experiment
module Sweep = El_check.Sweep
module Preset = El_workload.Workload_preset

let el_kind () = List.assoc "el" (Sweep.standard_kinds ())
let hybrid_kind () = List.assoc "hybrid" (Sweep.standard_kinds ())

let preset_config ?(runtime = Time.of_sec 8) ?(seed = 42) ?kind p =
  let kind = match kind with Some k -> k | None -> el_kind () in
  Sweep.standard_config ~kind ~runtime ~rate:40.0 ~seed ~preset:p ()

(* ---- determinism ---- *)

(* Same preset + same seed => Marshal-byte-identical results.  Every
   sampler consumes a fixed draw sequence from the seeded RNG, so this
   pins the whole pipeline: arrivals, Zipf draws, backoff jitter,
   Pareto scaling. *)
let test_preset_runs_identical () =
  List.iter
    (fun (p : Preset.t) ->
      let bytes () =
        Marshal.to_string (Experiment.run (preset_config p)) []
      in
      Alcotest.(check bool)
        (p.Preset.name ^ " reruns byte-identical")
        true
        (String.equal (bytes ()) (bytes ())))
    Preset.all

(* The observer must be a pure read-only tap: storm results with the
   trace ring on are byte-identical to results with it off. *)
let test_observer_identity () =
  let cfg = preset_config Preset.storm in
  let plain = Experiment.run cfg in
  let observed =
    Experiment.run
      { cfg with Experiment.observer = Some El_obs.Obs.default_config }
  in
  Alcotest.(check bool)
    "storm run identical with observer" true
    (String.equal
       (Marshal.to_string plain [])
       (Marshal.to_string observed []))

(* A parallel sweep fans the same seeded run across workers; the merged
   outcome must equal the serial sweep's bit for bit, presets
   included. *)
let test_sweep_jobs_identical () =
  let cfg = preset_config ~runtime:(Time.of_sec 6) Preset.storm in
  let serial = Sweep.run ~stride:80 ~max_points:20 ~spec:true cfg in
  let pool = El_par.Pool.create ~jobs:2 in
  let parallel =
    Fun.protect
      ~finally:(fun () -> El_par.Pool.shutdown pool)
      (fun () -> Sweep.run ~pool ~stride:80 ~max_points:20 ~spec:true cfg)
  in
  Alcotest.(check bool)
    "storm sweep identical under --jobs 2" true
    (String.equal
       (Marshal.to_string serial [])
       (Marshal.to_string parallel []))

(* ---- contention accounting ---- *)

(* The contention preset must actually produce contention, and the
   counters must satisfy the conservation laws: every retry follows an
   abort, every contention abort is an abort, every start is accounted
   for (transactions still in flight at the horizon explain the
   slack). *)
let accounting_holds (r : Experiment.result) =
  r.Experiment.contention_aborts <= r.Experiment.aborted
  && r.Experiment.contention_retries <= r.Experiment.contention_aborts
  && r.Experiment.contention_retries <= r.Experiment.started
  && r.Experiment.committed + r.Experiment.aborted + r.Experiment.killed
     <= r.Experiment.started

let test_contention_counters () =
  let r = Experiment.run (preset_config Preset.contention) in
  Alcotest.(check bool) "aborts seen" true (r.Experiment.contention_aborts > 0);
  Alcotest.(check bool)
    "retries seen" true
    (r.Experiment.contention_retries > 0);
  Alcotest.(check bool) "accounting holds" true (accounting_holds r);
  (* uniform drawing cannot contend *)
  let u = Experiment.run (preset_config Preset.uniform) in
  Alcotest.(check int) "uniform aborts" 0 u.Experiment.contention_aborts;
  Alcotest.(check int) "uniform retries" 0 u.Experiment.contention_retries

let prop_conservation =
  QCheck.Test.make ~name:"start/commit/abort/kill conservation" ~count:9
    QCheck.(pair (oneofl [ 7; 11; 13 ]) (oneofl [ "el"; "fw"; "hybrid" ]))
    (fun (seed, kind_name) ->
      let kind = List.assoc kind_name (Sweep.standard_kinds ()) in
      let r =
        Experiment.run
          (preset_config ~runtime:(Time.of_sec 6) ~seed ~kind
             Preset.contention)
      in
      accounting_holds r && r.Experiment.contention_aborts > 0)

(* ---- regressions for the bugs the matrix exposed ---- *)

(* Zipfian self-held re-draws make a transaction update the same oid
   twice; the hybrid manager's commit hook used to double-count the
   superseded stub and trip its structural invariant.  A clean spec
   sweep pins the fix. *)
let test_zipf_hybrid_sweep_clean () =
  let cfg =
    preset_config ~runtime:(Time.of_sec 8) ~kind:(hybrid_kind ()) Preset.zipf
  in
  let o = Sweep.run ~stride:80 ~max_points:25 ~spec:true cfg in
  Alcotest.(check bool) "not overloaded" false o.Sweep.overloaded;
  Alcotest.(check (list (pair int string))) "no failures" [] o.Sweep.failures;
  Alcotest.(check bool) "contended" true (o.Sweep.contention_aborts > 0)

(* Storm pressure used to crash the hybrid manager: the space hunt
   inside an append could kill the transaction whose record was being
   appended, and the append then pinned its recycled segment
   ([Arena.pin: segment already recycled]).  These two seeds raised;
   the record of a killed transaction is now dropped, and the spec
   sweep must find nothing wrong with what is logged instead. *)
let test_storm_hybrid_kill_mid_append () =
  List.iter
    (fun seed ->
      let cfg =
        Sweep.standard_config ~kind:(hybrid_kind ()) ~seed
          ~preset:Preset.storm ()
      in
      let r = Experiment.run cfg in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: storm kills under pressure" seed)
        true (r.Experiment.killed > 0);
      let o = Sweep.run ~spec:true cfg in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: not overloaded" seed)
        false o.Sweep.overloaded;
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "seed %d: no failures" seed)
        [] o.Sweep.failures)
    [ 398; 839 ]

(* Multi-size records plus Pareto lifetimes used to open the
   forward-origin race: the overwrite of a forwarded head slot could
   reach the platter before the forward write on the backlogged
   next-generation channel, losing acked updates at a crash.  The
   longtail sweep (spec oracle + crash recovery at every pause) must
   be clean at the preset's scaled geometry. *)
let test_longtail_el_sweep_clean () =
  let cfg = preset_config ~runtime:(Time.of_sec 10) Preset.longtail in
  let o = Sweep.run ~stride:60 ~max_points:40 ~spec:true cfg in
  Alcotest.(check bool) "not overloaded" false o.Sweep.overloaded;
  Alcotest.(check (list (pair int string))) "no failures" [] o.Sweep.failures;
  Alcotest.(check bool) "audited" true (o.Sweep.points > 10)

(* At the unscaled polite-traffic geometry the same traffic must make
   the guard arm and the run degrade honestly (stalls surfacing as
   kills/overload) — never lose data silently. *)
let test_forward_guard_arms () =
  let kind =
    Experiment.Ephemeral
      (El_core.Policy.default ~generation_sizes:[| 8; 8 |])
  in
  let cfg =
    Experiment.apply_preset
      (Sweep.standard_config ~kind ~runtime:(Time.of_sec 15) ~rate:40.0
         ~seed:42 ())
      Preset.longtail
  in
  let r = Experiment.run cfg in
  let parks =
    match r.Experiment.stats with
    | [ Experiment.El_log_stats s ] -> s.El_core.El_manager.fwd_guard_parks
    | _ -> 0
  in
  Alcotest.(check bool) "guard armed" true (parks > 0);
  Alcotest.(check bool)
    "pressure surfaced honestly" true
    (r.Experiment.overloaded || r.Experiment.killed > 0)

(* The guard must never fire on the polite baseline: uniform traffic
   at the standard geometry is byte-identical to the pre-guard
   manager. *)
let test_guard_inert_on_uniform () =
  let r = Experiment.run (preset_config Preset.uniform) in
  match r.Experiment.stats with
  | [ Experiment.El_log_stats s ] ->
    Alcotest.(check int) "no parks" 0 s.El_core.El_manager.fwd_guard_parks
  | _ -> Alcotest.fail "expected EL stats"

let suite =
  [
    Alcotest.test_case "preset reruns are byte-identical" `Quick
      test_preset_runs_identical;
    Alcotest.test_case "observer on/off identity (storm)" `Quick
      test_observer_identity;
    Alcotest.test_case "serial = --jobs 2 sweep (storm)" `Quick
      test_sweep_jobs_identical;
    Alcotest.test_case "contention counters" `Quick test_contention_counters;
    QCheck_alcotest.to_alcotest prop_conservation;
    Alcotest.test_case "zipf/hybrid spec sweep clean (self-supersede)" `Quick
      test_zipf_hybrid_sweep_clean;
    Alcotest.test_case "storm/hybrid: kill inside an append drops the record"
      `Quick test_storm_hybrid_kill_mid_append;
    Alcotest.test_case "longtail/el spec sweep clean (forward guard)" `Quick
      test_longtail_el_sweep_clean;
    Alcotest.test_case "forward guard arms under unscaled longtail" `Quick
      test_forward_guard_arms;
    Alcotest.test_case "forward guard inert on uniform" `Quick
      test_guard_inert_on_uniform;
  ]
