open El_model
module Tx = El_workload.Tx_type
module Mix = El_workload.Mix
module Pool = El_workload.Oid_pool

(* ---- transaction types ---- *)

let test_paper_types () =
  let s = Tx.short ~probability:0.95 in
  Alcotest.(check int) "short records" 2 s.Tx.num_records;
  Alcotest.(check int) "short duration" 1_000_000 (Time.to_us s.Tx.duration);
  let l = Tx.long ~probability:0.05 in
  Alcotest.(check int) "long records" 4 l.Tx.num_records;
  Alcotest.(check int) "long size" 100 l.Tx.record_size

let test_record_schedule () =
  (* Figure 3: records every (T-eps)/N, the last at T-eps. *)
  let ty =
    Tx.make ~name:"t" ~probability:1.0 ~duration:(Time.of_ms 101)
      ~num_records:4 ~record_size:10
  in
  let offsets = Tx.record_schedule ty ~epsilon:(Time.of_ms 1) in
  Alcotest.(check (list int))
    "equally spaced, last at T-eps"
    [ 25_000; 50_000; 75_000; 100_000 ]
    (List.map Time.to_us offsets);
  Alcotest.(check int) "commit at T" 101_000 (Time.to_us (Tx.commit_offset ty))

let test_schedule_validation () =
  let ty =
    Tx.make ~name:"t" ~probability:1.0 ~duration:(Time.of_ms 1) ~num_records:1
      ~record_size:10
  in
  Alcotest.check_raises "epsilon too large"
    (Invalid_argument "Tx_type.record_schedule: epsilon >= duration")
    (fun () -> ignore (Tx.record_schedule ty ~epsilon:(Time.of_ms 1)))

(* ---- mixes ---- *)

let test_mix_normalisation () =
  let a = Tx.make ~name:"a" ~probability:3.0 ~duration:(Time.of_sec 1) ~num_records:1 ~record_size:1 in
  let b = Tx.make ~name:"b" ~probability:1.0 ~duration:(Time.of_sec 1) ~num_records:1 ~record_size:1 in
  let mix = Mix.create [ a; b ] in
  Alcotest.(check (float 1e-9)) "a normalised" 0.75 (Mix.probability mix a);
  Alcotest.(check (float 1e-9)) "b normalised" 0.25 (Mix.probability mix b)

let test_mix_sampling_frequencies () =
  let mix = Mix.short_long ~long_fraction:0.2 in
  let rng = Random.State.make [| 11 |] in
  let longs = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if (Mix.sample mix rng).Tx.name = "long" then incr longs
  done;
  let freq = float_of_int !longs /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "within 2%% of 20%% (got %.3f)" freq)
    true
    (abs_float (freq -. 0.2) < 0.02)

let test_mix_expectations () =
  let mix = Mix.short_long ~long_fraction:0.05 in
  (* paper: 0.95*2 + 0.05*4 = 2.1 updates per tx => 210/s at 100 TPS *)
  Alcotest.(check (float 1e-9)) "updates per tx" 2.1
    (Mix.expected_updates_per_tx mix);
  (* bytes: 2.1*100 + 16 of tx records *)
  Alcotest.(check (float 1e-9)) "bytes per tx" 226.0
    (Mix.expected_bytes_per_tx mix ~tx_record_size:8);
  let mix40 = Mix.short_long ~long_fraction:0.4 in
  Alcotest.(check (float 1e-9)) "40% mix: 2.8 updates" 2.8
    (Mix.expected_updates_per_tx mix40)

let test_mix_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Mix.create: empty")
    (fun () -> ignore (Mix.create []));
  Alcotest.check_raises "fraction range"
    (Invalid_argument "Mix.short_long: fraction outside [0,1]") (fun () ->
      ignore (Mix.short_long ~long_fraction:1.5))

(* ---- oid pool ---- *)

let test_pool_uniqueness () =
  let pool = Pool.create ~num_objects:50 in
  let rng = Random.State.make [| 3 |] in
  let drawn =
    List.init 50 (fun _ ->
        match Pool.acquire pool rng with
        | Some oid -> Ids.Oid.to_int oid
        | None -> Alcotest.fail "pool exhausted early")
  in
  Alcotest.(check int) "all distinct" 50
    (List.length (List.sort_uniq compare drawn));
  Alcotest.(check (option int)) "then exhausted" None
    (Option.map Ids.Oid.to_int (Pool.acquire pool rng));
  Alcotest.(check int) "in use" 50 (Pool.in_use pool)

let test_pool_release () =
  let pool = Pool.create ~num_objects:1 in
  let rng = Random.State.make [| 3 |] in
  let o = Option.get (Pool.acquire pool rng) in
  Pool.release pool o;
  Alcotest.(check int) "released" 0 (Pool.in_use pool);
  let o2 = Option.get (Pool.acquire pool rng) in
  Alcotest.(check int) "reacquirable" (Ids.Oid.to_int o) (Ids.Oid.to_int o2);
  Alcotest.check_raises "double release"
    (Invalid_argument "Oid_pool.release: oid not held") (fun () ->
      Pool.release pool (Ids.Oid.of_int 0);
      Pool.release pool (Ids.Oid.of_int 0))

let prop_pool_constraint =
  QCheck.Test.make ~name:"no oid is held twice concurrently" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let pool = Pool.create ~num_objects:20 in
      let rng = Random.State.make [| seed |] in
      let held = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 200 do
        if Random.State.bool rng && Hashtbl.length held < 20 then (
          match Pool.acquire pool rng with
          | Some o ->
            let k = Ids.Oid.to_int o in
            if Hashtbl.mem held k then ok := false;
            Hashtbl.replace held k ()
          | None -> ())
        else
          match Hashtbl.fold (fun k () _ -> Some k) held None with
          | Some k ->
            Hashtbl.remove held k;
            Pool.release pool (Ids.Oid.of_int k)
          | None -> ()
      done;
      !ok && Pool.in_use pool = Hashtbl.length held)

(* ---- statistical conformance of the adversarial samplers ---- *)

(* Pearson chi-square goodness of fit of Zipf draws, tail ranks pooled
   so every bin expects at least 5 counts.  The Gray construction is
   exact for the two hottest ranks and realises the remaining ranks
   through its continuous inverse, so the expectations here are that
   realized law, derived independently from (n, theta) — the test
   fails on any sampler or normaliser bug, while the exact power law
   itself is pinned by the rank-0/1 and tail-slope checks below.  The
   acceptance threshold is the 99.9th chi-square percentile via the
   Wilson-Hilferty approximation. *)
let test_zipf_chi_square () =
  let n = 50 and theta = 0.9 and draws = 50_000 in
  let fn = float_of_int n in
  let z = El_workload.Zipf.create ~n ~theta in
  let rng = Random.State.make [| 71; 23 |] in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = El_workload.Zipf.next z rng in
    counts.(r) <- counts.(r) + 1
  done;
  (* the construction's realized rank probabilities, from first
     principles: branch mass for ranks 0 and 1, plus the mass of the
     continuous-inverse region floor(n * (eta u - eta + 1)^(1/(1-theta)))
     landing on each rank *)
  let zetan = 1.0 /. El_workload.Zipf.probability z 0 in
  let zeta2 = 1.0 +. (0.5 ** theta) in
  let eta =
    (1.0 -. ((2.0 /. fn) ** (1.0 -. theta))) /. (1.0 -. (zeta2 /. zetan))
  in
  let u2 = zeta2 /. zetan in
  (* u at which the inverse formula first yields rank >= k *)
  let bound k =
    (((float_of_int k /. fn) ** (1.0 -. theta)) -. 1.0 +. eta) /. eta
  in
  let expected r =
    let formula_mass =
      let lo = Float.max (bound r) u2 in
      let hi = Float.min (bound (r + 1)) 1.0 in
      Float.max 0.0 (hi -. lo)
    in
    let branch_mass =
      if r = 0 then 1.0 /. zetan
      else if r = 1 then u2 -. (1.0 /. zetan)
      else 0.0
    in
    float_of_int draws *. (branch_mass +. formula_mass)
  in
  (* pool from the tail until every bin's expectation reaches 5 *)
  let bins = ref [] in
  let acc_obs = ref 0 and acc_exp = ref 0.0 in
  for r = n - 1 downto 0 do
    acc_obs := !acc_obs + counts.(r);
    acc_exp := !acc_exp +. expected r;
    if !acc_exp >= 5.0 then begin
      bins := (!acc_obs, !acc_exp) :: !bins;
      acc_obs := 0;
      acc_exp := 0.0
    end
  done;
  if !acc_exp > 0.0 then
    bins :=
      (match !bins with
      | (o, e) :: rest -> (o + !acc_obs, e +. !acc_exp) :: rest
      | [] -> [ (!acc_obs, !acc_exp) ]);
  let chi2 =
    List.fold_left
      (fun acc (o, e) ->
        let d = float_of_int o -. e in
        acc +. (d *. d /. e))
      0.0 !bins
  in
  let k = float_of_int (List.length !bins - 1) in
  Alcotest.(check bool) "enough bins" true (k >= 10.0);
  let z999 = 3.09 in
  let critical =
    let u = 1.0 -. (2.0 /. (9.0 *. k)) +. (z999 *. sqrt (2.0 /. (9.0 *. k))) in
    k *. u *. u *. u
  in
  if chi2 >= critical then
    Alcotest.failf "chi-square %.1f >= %.1f (df %.0f): draws do not fit" chi2
      critical k;
  (* ranks 0 and 1 are exact in the construction: their frequencies
     must match the pure power law within sampling noise *)
  List.iter
    (fun r ->
      let p = El_workload.Zipf.probability z r in
      let f = float_of_int counts.(r) /. float_of_int draws in
      if abs_float (f -. p) /. p >= 0.1 then
        Alcotest.failf "rank %d frequency %.4f vs law %.4f" r f p)
    [ 0; 1 ];
  (* and the tail must fall like a power law: the log-log slope over
     the well-populated ranks is close to -theta *)
  let slope =
    let xs = ref [] in
    for r = 1 to 19 do
      if counts.(r) > 0 then
        xs :=
          ( log (float_of_int (r + 1)),
            log (float_of_int counts.(r) /. float_of_int draws) )
          :: !xs
    done;
    let m = float_of_int (List.length !xs) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 !xs in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 !xs in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 !xs in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 !xs in
    ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx))
  in
  if abs_float (slope +. theta) >= 0.15 then
    Alcotest.failf "log-log slope %.3f, expected ~%.2f" slope (-.theta)

(* Index of dispersion of windowed arrival counts: variance/mean of
   counts in 1 s windows.  Deterministic arrivals are (nearly)
   noise-free, Poisson sits at 1 by definition, and the interrupted
   Poisson process must be clearly over-dispersed — that burstiness
   is the preset's entire point. *)
let dispersion process ~rate ~windows =
  let a = El_workload.Arrival.create process ~rate in
  let rng = Random.State.make [| 5; 17 |] in
  let counts = Array.make windows 0 in
  let t = ref Time.zero in
  let horizon = Time.mul_int (Time.of_sec 1) windows in
  let stop = ref false in
  while not !stop do
    let gap = El_workload.Arrival.next a rng in
    t := Time.add !t gap;
    if Time.( >= ) !t horizon then stop := true
    else begin
      let w = Time.to_us !t / 1_000_000 in
      counts.(w) <- counts.(w) + 1
    end
  done;
  let mean =
    float_of_int (Array.fold_left ( + ) 0 counts) /. float_of_int windows
  in
  let var =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. mean in
        acc +. (d *. d))
      0.0 counts
    /. float_of_int windows
  in
  var /. mean

let test_arrival_dispersion () =
  let rate = 20.0 and windows = 2_000 in
  let det = dispersion El_workload.Arrival.Deterministic ~rate ~windows in
  let poi = dispersion El_workload.Arrival.Poisson ~rate ~windows in
  let bur =
    dispersion
      (El_workload.Arrival.Burst
         {
           on_mean = Time.of_ms 400;
           off_mean = Time.of_ms 1200;
           intensity = 4.0;
         })
      ~rate ~windows
  in
  Alcotest.(check bool)
    (Printf.sprintf "deterministic underdispersed (%.3f)" det)
    true (det < 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "poisson near 1 (%.3f)" poi)
    true (poi > 0.7 && poi < 1.3);
  Alcotest.(check bool)
    (Printf.sprintf "burst overdispersed (%.3f)" bur)
    true
    (bur > 1.5 && bur > 2.0 *. poi)

(* The burst process must still deliver its configured long-run rate
   (the intensity/duty-cycle algebra in the presets relies on it). *)
let test_burst_mean_rate () =
  let process =
    El_workload.Arrival.Burst
      {
        on_mean = Time.of_ms 400;
        off_mean = Time.of_ms 1200;
        intensity = 4.0;
      }
  in
  let a = El_workload.Arrival.create process ~rate:20.0 in
  let implied = El_workload.Arrival.mean_rate a in
  Alcotest.(check bool)
    (Printf.sprintf "implied rate %.2f" implied)
    true
    (abs_float (implied -. 20.0) < 1e-6);
  let rng = Random.State.make [| 9 |] in
  let t = ref Time.zero and count = ref 0 in
  while Time.( < ) !t (Time.of_sec 500) do
    t := Time.add !t (El_workload.Arrival.next a rng);
    incr count
  done;
  let measured = float_of_int !count /. 500.0 in
  Alcotest.(check bool)
    (Printf.sprintf "measured rate %.2f" measured)
    true
    (abs_float (measured -. 20.0) /. 20.0 < 0.15)

(* Pareto lifetime scaling: bounded by [1, cap], heavy enough that the
   tail actually bites (a visible fraction of draws above 2x), and
   Fixed consumes no randomness. *)
let test_lifetime_scale () =
  let life = El_workload.Lifetime.Pareto { alpha = 1.3; cap = 6.0 } in
  let rng = Random.State.make [| 31 |] in
  let n = 20_000 in
  let above2 = ref 0 in
  for _ = 1 to n do
    let s = El_workload.Lifetime.scale life rng in
    Alcotest.(check bool) "bounded" true (s >= 1.0 && s <= 6.0);
    if s > 2.0 then incr above2
  done;
  let frac = float_of_int !above2 /. float_of_int n in
  (* P(X > 2) = 2^-1.3 ~ 0.406 for an uncapped Pareto(1.3) *)
  Alcotest.(check bool)
    (Printf.sprintf "heavy tail (%.3f above 2x)" frac)
    true
    (frac > 0.3 && frac < 0.5);
  let rng1 = Random.State.make [| 42 |] in
  let s = El_workload.Lifetime.scale El_workload.Lifetime.Fixed rng1 in
  Alcotest.(check (float 0.0)) "fixed is 1" 1.0 s;
  Alcotest.(check int) "fixed consumes no variate" (Random.State.bits rng1)
    (Random.State.bits (Random.State.make [| 42 |]))

let suite =
  [
    Alcotest.test_case "paper transaction types" `Quick test_paper_types;
    Alcotest.test_case "Figure 3 record schedule" `Quick test_record_schedule;
    Alcotest.test_case "schedule validation" `Quick test_schedule_validation;
    Alcotest.test_case "mix normalisation" `Quick test_mix_normalisation;
    Alcotest.test_case "mix sampling frequencies" `Quick
      test_mix_sampling_frequencies;
    Alcotest.test_case "mix expectations (paper rates)" `Quick
      test_mix_expectations;
    Alcotest.test_case "mix validation" `Quick test_mix_validation;
    Alcotest.test_case "oid pool uniqueness & exhaustion" `Quick
      test_pool_uniqueness;
    Alcotest.test_case "oid pool release" `Quick test_pool_release;
    QCheck_alcotest.to_alcotest prop_pool_constraint;
    Alcotest.test_case "Zipf chi-square goodness of fit" `Quick
      test_zipf_chi_square;
    Alcotest.test_case "arrival index of dispersion" `Quick
      test_arrival_dispersion;
    Alcotest.test_case "burst long-run rate" `Quick test_burst_mean_rate;
    Alcotest.test_case "Pareto lifetime scaling" `Quick test_lifetime_scale;
  ]
