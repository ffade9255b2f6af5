open El_model

type process =
  | Deterministic
  | Poisson
  | Burst of { on_mean : Time.t; off_mean : Time.t; intensity : float }

let process_name = function
  | Deterministic -> "deterministic"
  | Poisson -> "poisson"
  | Burst _ -> "burst"

(* Exponential variate by inversion; clamped away from zero so two
   arrivals never collapse onto the same microsecond en masse.  Poisson
   gaps, burst gaps, ON/OFF windows and the generator's retry backoff
   all draw through it. *)
let exponential_us rng ~mean_us =
  let u = Random.State.float rng 1.0 in
  let x = -.mean_us *. log (1.0 -. u) in
  max 1 (int_of_float x)

let exponential rng ~mean =
  Time.of_us (exponential_us rng ~mean_us:(float_of_int (Time.to_us mean)))

type t = {
  process : process;
  rate : float;
  mutable on_remaining : Time.t;
      (** Burst only: time left in the current ON window.  The sampler
          starts inside an ON window of mean length, so the very first
          arrivals of a seeded run are burst traffic, not silence. *)
}

let create process ~rate =
  if rate <= 0.0 then invalid_arg "Arrival.create: zero rate";
  (match process with
  | Deterministic | Poisson -> ()
  | Burst { on_mean; off_mean; intensity } ->
    if Time.(on_mean <= Time.zero) || Time.(off_mean <= Time.zero) then
      invalid_arg "Arrival.create: non-positive burst phase";
    if intensity <= 0.0 then invalid_arg "Arrival.create: zero intensity");
  let on_remaining =
    match process with
    | Burst { on_mean; _ } -> on_mean
    | Deterministic | Poisson -> Time.zero
  in
  { process; rate; on_remaining }

let next t rng =
  match t.process with
  | Deterministic -> Time.of_sec_f (1.0 /. t.rate)
  | Poisson -> Time.of_us (exponential_us rng ~mean_us:(1_000_000.0 /. t.rate))
  | Burst { on_mean; off_mean; intensity } ->
    (* An interrupted Poisson process: arrivals at [rate * intensity]
       during exponential ON windows, silence during exponential OFF
       windows.  The ON rate is memoryless, so a candidate gap that
       overshoots the window is simply redrawn after the OFF period —
       no spliced residuals, one uniform variate per draw. *)
    let burst_mean_us = 1_000_000.0 /. (t.rate *. intensity) in
    let rec go elapsed =
      let gap = Time.of_us (exponential_us rng ~mean_us:burst_mean_us) in
      if Time.(gap <= t.on_remaining) then begin
        t.on_remaining <- Time.sub t.on_remaining gap;
        Time.add elapsed gap
      end
      else begin
        let elapsed = Time.add elapsed t.on_remaining in
        let off = exponential rng ~mean:off_mean in
        t.on_remaining <- exponential rng ~mean:on_mean;
        go (Time.add elapsed off)
      end
    in
    go Time.zero

let mean_rate = function
  | { process = Deterministic | Poisson; rate; _ } -> rate
  | { process = Burst { on_mean; off_mean; intensity }; rate; _ } ->
    let on = Time.to_sec_f on_mean and off = Time.to_sec_f off_mean in
    rate *. intensity *. (on /. (on +. off))
