(* The fault model's own tests: plan validation, the injector's
   determinism contract (per-device streams, fixed draws, pins),
   retry/remap counters and spare exhaustion, the byte-identity of
   empty and armed-but-inert plans, the timing-neutral retry law, the
   exact-suffix semantics of torn writes, the torn-write recovery
   battery over every manager kind, and degraded load shedding. *)

open El_model
module FP = El_fault.Fault_plan
module Injector = El_fault.Injector
module Experiment = El_harness.Experiment
module Sweep = El_check.Sweep
module Recovery = El_recovery.Recovery
module Policy = El_core.Policy

let el_manager (live : Experiment.live) =
  match live.Experiment.manager with
  | Experiment.El_log m -> m
  | Experiment.Fw_log _ | Experiment.Hybrid_log _ ->
    Alcotest.fail "an EL run expected"

let kind_of name = List.assoc name (Sweep.standard_kinds ())

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: invalid plan accepted" name
  | exception Invalid_argument _ -> ()

let test_plan_validation () =
  expect_invalid "rate above 1" (fun () ->
      FP.make
        ~log_spec:{ FP.clean_spec with FP.transient_rate = 1.5 }
        ~log_gens:1 ~flush_drives:0 ());
  expect_invalid "negative rate" (fun () ->
      FP.make
        ~log_spec:{ FP.clean_spec with FP.sticky_rate = -0.1 }
        ~log_gens:1 ~flush_drives:0 ());
  expect_invalid "zero burst" (fun () ->
      FP.make
        ~log_spec:{ FP.clean_spec with FP.transient_burst = 0 }
        ~log_gens:1 ~flush_drives:0 ());
  expect_invalid "negative pin" (fun () ->
      FP.make
        ~log_spec:{ FP.clean_spec with FP.pinned_torn = [ -3 ] }
        ~log_gens:1 ~flush_drives:0 ());
  expect_invalid "backwards window" (fun () ->
      FP.make
        ~log_spec:
          {
            FP.clean_spec with
            FP.latency =
              [
                {
                  FP.w_from = Time.of_sec 5;
                  w_until = Time.of_sec 1;
                  w_factor = 2.0;
                };
              ];
          }
        ~log_gens:1 ~flush_drives:0 ());
  expect_invalid "non-positive factor" (fun () ->
      FP.make
        ~log_spec:
          {
            FP.clean_spec with
            FP.latency =
              [
                {
                  FP.w_from = Time.zero;
                  w_until = Time.of_sec 1;
                  w_factor = 0.0;
                };
              ];
          }
        ~log_gens:1 ~flush_drives:0 ());
  expect_invalid "negative spares" (fun () ->
      FP.make ~spares:(-1) ~log_gens:1 ~flush_drives:0 ());
  expect_invalid "negative shed backlog" (fun () ->
      FP.make ~degraded:{ FP.shed_backlog = -1 } ~log_gens:1 ~flush_drives:0 ());
  expect_invalid "duplicate device" (fun () ->
      FP.validate
        {
          FP.empty with
          FP.specs =
            [ (FP.Log_gen 0, FP.clean_spec); (FP.Log_gen 0, FP.clean_spec) ];
        });
  (* the empty plan arms nothing; a plan of clean specs arms an inert
     injector *)
  Alcotest.(check bool) "empty is empty" true (FP.is_empty FP.empty);
  Alcotest.(check bool) "no injector for the empty plan" true
    (Injector.create FP.empty = None);
  Alcotest.(check bool) "inert plan still arms" true
    (Injector.create (FP.make ~log_gens:1 ~flush_drives:1 ()) <> None)

let storm_spec =
  {
    FP.clean_spec with
    FP.transient_rate = 0.3;
    transient_burst = 4;
    sticky_rate = 0.05;
    torn_rate = 0.4;
  }

let test_injector_determinism () =
  let plan =
    FP.make ~seed:9 ~spares:10_000 ~log_spec:storm_spec ~flush_spec:storm_spec
      ~log_gens:2 ~flush_drives:2 ()
  in
  let draw inj =
    let ds = Injector.log_gen inj 0 in
    List.init 300 (fun i -> Injector.next_op ds ~now:(Time.of_ms (i * 7)))
  in
  let a = draw (Option.get (Injector.create plan)) in
  let b = draw (Option.get (Injector.create plan)) in
  Alcotest.(check bool) "same plan, same stream" true (a = b);
  (* interleaving draws on other devices must not shift gen0's stream *)
  let inj = Option.get (Injector.create plan) in
  let g0 = Injector.log_gen inj 0 in
  let g1 = Injector.log_gen inj 1 in
  let d0 = Injector.flush_drive inj 0 in
  let c =
    List.init 300 (fun i ->
        ignore (Injector.next_op g1 ~now:(Time.of_ms i));
        ignore (Injector.next_op d0 ~now:(Time.of_ms i));
        Injector.next_op g0 ~now:(Time.of_ms (i * 7)))
  in
  Alcotest.(check bool) "device streams are independent" true (a = c);
  (* pins never shift the stream: the torn draws of a pinned plan
     match the unpinned plan's op for op *)
  let pinned =
    FP.make ~seed:9 ~spares:10_000
      ~log_spec:{ storm_spec with FP.pinned_transient = [ 10 ] }
      ~flush_spec:storm_spec ~log_gens:2 ~flush_drives:2 ()
  in
  let p = draw (Option.get (Injector.create pinned)) in
  Alcotest.(check bool) "pins do not shift the draws" true
    (List.map (fun r -> r.Injector.r_torn) a
    = List.map (fun r -> r.Injector.r_torn) p);
  Alcotest.(check bool) "pinned op retries" true
    ((List.nth p 10).Injector.r_retries > 0)

let test_sticky_pins_and_spares () =
  let spec = { FP.clean_spec with FP.pinned_sticky = [ 2; 5 ] } in
  let plan = FP.make ~seed:1 ~spares:8 ~log_spec:spec ~log_gens:1 ~flush_drives:0 () in
  let inj = Option.get (Injector.create plan) in
  let ds = Injector.log_gen inj 0 in
  let rs = List.init 8 (fun _ -> Injector.next_op ds ~now:Time.zero) in
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "op %d remapped iff pinned" i)
        (i = 2 || i = 5) r.Injector.r_remapped)
    rs;
  Alcotest.(check int) "device remaps" 2 (Injector.device_remaps ds);
  Alcotest.(check int) "injector remaps" 2 (Injector.remaps inj);
  Alcotest.(check int) "ops counted" 8 (Injector.device_ops ds);
  (* spare exhaustion is fatal, at the same op every time *)
  let tight =
    FP.make ~seed:1 ~spares:1
      ~log_spec:{ FP.clean_spec with FP.pinned_sticky = [ 0; 1 ] }
      ~log_gens:1 ~flush_drives:0 ()
  in
  let attempt () =
    let ds = Injector.log_gen (Option.get (Injector.create tight)) 0 in
    ignore (Injector.next_op ds ~now:Time.zero);
    match Injector.next_op ds ~now:Time.zero with
    | _ -> Alcotest.fail "expected Io_fatal once the spare is gone"
    | exception Injector.Io_fatal { op; _ } -> op
  in
  Alcotest.(check int) "fatal at op 1" 1 (attempt ());
  Alcotest.(check int) "fatal replays at op 1" 1 (attempt ())

(* The empty plan and an armed-but-inert plan must both reproduce the
   fault-free results to the byte: every manager kind's run result and
   a scarce-log variant's, and every manager kind's crash-point sweep
   outcome at seeds 1-3. *)
let test_empty_plan_byte_identity () =
  let configs =
    List.map
      (fun (name, kind) ->
        (name, Sweep.standard_config ~kind ~runtime:(Time.of_sec 8) ~seed:42 ()))
      (Sweep.standard_kinds ())
    @ [
        ( "el-scarce",
          {
            (Sweep.standard_config
               ~kind:
                 (Experiment.Ephemeral
                    (Policy.default ~generation_sizes:[| 20; 11 |]))
               ~runtime:(Time.of_sec 10) ~seed:7 ())
            with
            Experiment.flush_transfer = Time.of_ms 45;
          } );
      ]
  in
  List.iter
    (fun (name, cfg) ->
      let base = Marshal.to_string (Experiment.run cfg) [] in
      let armed =
        {
          cfg with
          Experiment.fault =
            FP.make ~seed:cfg.Experiment.seed ~log_gens:2 ~flush_drives:2 ();
        }
      in
      Alcotest.(check bool)
        (name ^ ": armed-but-inert plan is byte-identical")
        true
        (Marshal.to_string (Experiment.run armed) [] = base))
    configs;
  List.iter
    (fun (name, kind) ->
      for seed = 1 to 3 do
        let cfg = Sweep.standard_config ~kind ~seed () in
        let inert =
          {
            cfg with
            Experiment.fault = FP.make ~seed ~log_gens:2 ~flush_drives:2 ();
          }
        in
        let sweep cfg = Marshal.to_string (Sweep.run ~stride:200 cfg) [] in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: armed-but-inert sweep is byte-identical"
             name seed)
          true
          (sweep inert = sweep cfg)
      done)
    (Sweep.standard_kinds ())

(* The retry/backoff law: under the default timing-neutral policy
   (zero penalty), a transient-fault plan with enough spares produces
   results byte-identical to the fault-free run — absorbing retries
   and remapping never perturbs the simulation. *)
let prop_retry_neutrality =
  QCheck.Test.make
    ~name:"timing-neutral retries leave the run byte-identical" ~count:6
    QCheck.(triple (int_bound 9_999) (oneofl [ 0.05; 0.3; 0.8 ]) (int_range 1 6))
    (fun (seed, rate, burst) ->
      let cfg =
        Sweep.standard_config ~kind:(kind_of "el") ~runtime:(Time.of_sec 6)
          ~seed ()
      in
      let base = Marshal.to_string (Experiment.run cfg) [] in
      let spec =
        {
          FP.clean_spec with
          FP.transient_rate = rate;
          transient_burst = burst;
        }
      in
      let faulted =
        {
          cfg with
          Experiment.fault =
            FP.make ~seed ~spares:1_000_000 ~log_spec:spec ~flush_spec:spec
              ~log_gens:2 ~flush_drives:2 ();
        }
      in
      let live = Experiment.prepare faulted in
      let r = live.Experiment.finish () in
      let inj = Option.get live.Experiment.fault in
      Marshal.to_string r [] = base
      && (rate < 0.3 || Injector.retries inj > 0))

(* ... and when the spares run out, the run dies deterministically:
   the same seed raises Io_fatal at the same op of the same device,
   or completes byte-identically, every time. *)
let prop_fatal_deterministic =
  QCheck.Test.make
    ~name:"spare exhaustion is deterministic per seed" ~count:6
    QCheck.(int_bound 9_999)
    (fun seed ->
      let cfg =
        Sweep.standard_config ~kind:(kind_of "el") ~runtime:(Time.of_sec 6)
          ~seed ()
      in
      let spec = { FP.clean_spec with FP.sticky_rate = 0.02 } in
      let faulted =
        {
          cfg with
          Experiment.fault =
            FP.make ~seed ~spares:0 ~log_spec:spec ~flush_spec:spec
              ~log_gens:2 ~flush_drives:2 ();
        }
      in
      let attempt () =
        match Experiment.run faulted with
        | r -> Ok (Marshal.to_string r [])
        | exception Injector.Io_fatal { device; op; reason } ->
          Error (device, op, reason)
      in
      attempt () = attempt ())

(* Torn recovery is exactly suffix removal: recovering an image whose
   block lost its tail to a torn write equals recovering the image with
   that tail cut off cleanly, and the torn counters report the tail's
   size. *)
let test_torn_exact_suffix () =
  let cfg =
    Sweep.standard_config ~kind:(kind_of "el") ~runtime:(Time.of_sec 20)
      ~seed:42 ()
  in
  let live = Experiment.prepare cfg in
  El_sim.Engine.run live.Experiment.engine ~until:(Time.of_sec 15);
  let image =
    Recovery.crash live.Experiment.engine (el_manager live)
  in
  let rec pick = function
    | [] -> None
    | (b : Recovery.block) :: rest ->
      if List.length b.Recovery.records >= 2 then Some b else pick rest
  in
  match pick image.Recovery.blocks with
  | None -> Alcotest.fail "no multi-record block in a 15 s image"
  | Some b ->
    let n = List.length b.Recovery.records in
    let k = n / 2 in
    let prefix = List.filteri (fun i _ -> i < k) b.Recovery.records in
    let with_block block =
      {
        image with
        Recovery.blocks =
          List.map
            (fun bl -> if bl == b then block else bl)
            image.Recovery.blocks;
      }
    in
    let torn = with_block { Recovery.records = prefix; torn = n - k } in
    let truncated = with_block { Recovery.records = prefix; torn = 0 } in
    let rt = Recovery.recover torn in
    let rs = Recovery.recover truncated in
    Alcotest.(check bool) "same recovered database" true
      (El_disk.Stable_db.equal rt.Recovery.recovered rs.Recovery.recovered);
    let tids (r : Recovery.result) =
      List.sort Ids.Tid.compare r.Recovery.committed_tids
    in
    Alcotest.(check bool) "same committed set" true (tids rt = tids rs);
    Alcotest.(check int) "same scan size" rs.Recovery.records_scanned
      rt.Recovery.records_scanned;
    Alcotest.(check int) "one torn block" 1 rt.Recovery.torn_blocks;
    Alcotest.(check int) "exact suffix discarded" (n - k)
      rt.Recovery.torn_records;
    Alcotest.(check int) "truncated image is not torn" 0
      rs.Recovery.torn_blocks

(* The torn-write battery: 3 seeds x every manager kind under a torn
   storm on the log channels; the sweep crash-recovers and audits at
   every pause, so a single mis-discarded record would surface.  The
   EL sweeps must actually exercise torn tails. *)
let test_torn_battery () =
  let torn_spec = { FP.clean_spec with FP.torn_rate = 0.8 } in
  let el_torn = ref 0 in
  List.iter
    (fun (name, kind) ->
      List.iter
        (fun seed ->
          let cfg =
            {
              (Sweep.standard_config ~kind ~runtime:(Time.of_sec 12) ~seed ())
              with
              Experiment.fault =
                FP.make ~seed ~log_spec:torn_spec ~log_gens:2 ~flush_drives:2
                  ();
            }
          in
          let o = Sweep.run ~stride:60 cfg in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d: no audit failures" name seed)
            ""
            (String.concat "; " (List.map snd o.Sweep.failures));
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: ran to completion" name seed)
            false
            (o.Sweep.overloaded || o.Sweep.faulted);
          if name = "el" then el_torn := !el_torn + o.Sweep.torn_blocks)
        [ 1; 2; 3 ])
    (Sweep.standard_kinds ());
  Alcotest.(check bool) "torn tails actually exercised" true (!el_torn > 0)

(* The spec-vs-torn battery: the same torn storm, with the spec's own
   checks on too.  Torn prefixes are where the crash judge's per-
   transaction reading of the spec earns its keep — a COMMIT record can
   persist inside a torn prefix without its ack ever firing, and the
   recovered image must still hold exactly what the spec promised,
   raised by the writes of the log-extended transactions whose COMMIT
   persisted. *)
let test_spec_torn_battery () =
  let torn_spec = { FP.clean_spec with FP.torn_rate = 0.8 } in
  let spec_checks = ref 0 in
  List.iter
    (fun (name, kind) ->
      List.iter
        (fun seed ->
          let cfg =
            {
              (Sweep.standard_config ~kind ~runtime:(Time.of_sec 12) ~seed ())
              with
              Experiment.fault =
                FP.make ~seed ~log_spec:torn_spec ~log_gens:2 ~flush_drives:2
                  ();
            }
          in
          let o = Sweep.run ~stride:60 ~spec:true cfg in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d: no spec or audit failures" name seed)
            ""
            (String.concat "; " (List.map snd o.Sweep.failures));
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: ran to completion" name seed)
            false
            (o.Sweep.overloaded || o.Sweep.faulted);
          spec_checks := !spec_checks + o.Sweep.spec_checks)
        [ 1; 2; 3 ])
    (Sweep.standard_kinds ());
  Alcotest.(check bool) "spec checks actually performed" true (!spec_checks > 0)

(* Degraded mode: a flush-drive latency storm builds backlog past the
   threshold and arriving transactions are shed; without the plan the
   same run sheds nothing. *)
let test_degraded_shedding () =
  let cfg =
    Sweep.standard_config ~kind:(kind_of "el") ~runtime:(Time.of_sec 12)
      ~seed:5 ()
  in
  let base = Experiment.run cfg in
  Alcotest.(check int) "fault-free run kills nothing" 0 base.Experiment.killed;
  let storm =
    {
      FP.clean_spec with
      FP.latency =
        [
          { FP.w_from = Time.of_sec 2; w_until = Time.of_sec 10; w_factor = 8.0 };
        ];
    }
  in
  let degraded =
    {
      cfg with
      Experiment.fault =
        FP.make ~seed:5
          ~degraded:{ FP.shed_backlog = 6 }
          ~flush_spec:storm ~log_gens:2 ~flush_drives:2 ();
    }
  in
  let live = Experiment.prepare degraded in
  let r = live.Experiment.finish () in
  let sheds = Injector.sheds (Option.get live.Experiment.fault) in
  Alcotest.(check bool) "storm sheds load" true (sheds > 0);
  Alcotest.(check bool) "sheds are counted as kills" true
    (r.Experiment.killed >= sheds)

let suite =
  [
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "injector streams are deterministic and independent"
      `Quick test_injector_determinism;
    Alcotest.test_case "sticky pins, remap counters, spare exhaustion" `Quick
      test_sticky_pins_and_spares;
    Alcotest.test_case "empty and inert plans are byte-identical" `Quick
      test_empty_plan_byte_identity;
    QCheck_alcotest.to_alcotest prop_retry_neutrality;
    QCheck_alcotest.to_alcotest prop_fatal_deterministic;
    Alcotest.test_case "torn recovery is exact suffix removal" `Quick
      test_torn_exact_suffix;
    Alcotest.test_case "torn-write battery: 3 seeds x all kinds" `Slow
      test_torn_battery;
    Alcotest.test_case "spec-vs-torn battery: 3 seeds x all kinds" `Slow
      test_spec_torn_battery;
    Alcotest.test_case "degraded mode sheds under a latency storm" `Quick
      test_degraded_shedding;
  ]
