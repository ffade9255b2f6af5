open El_model

type t = {
  name : string;
  description : string;
  mix : Mix.t;
  arrival : Arrival.process;
  draw : Draw.t;
  lifetime : Lifetime.t;
  max_retries : int;
  retry_backoff : Time.t;
  space_factor : float;
      (* log-space appetite relative to the paper's standard mix:
         sweeps that use the standard manager geometries scale them by
         this factor, the paper's own discipline of sizing the log to
         the offered load (multi-size mixes carry ~2x the bytes per
         transaction and Pareto tails stretch residency further) *)
}

(* The paper's two-type shape, scaled to the check-sized runs the
   scenario matrix sweeps (short 400 ms, long 4 s) — the same
   proportions as [El_check.Sweep.standard_mix], so the [uniform]
   preset swept at 40 TPS is exactly the polite traffic PRs 1–7 were
   proven on. *)
let standard_mix () =
  Mix.create
    [
      Tx_type.make ~name:"short" ~probability:0.9 ~duration:(Time.of_ms 400)
        ~num_records:2 ~record_size:100;
      Tx_type.make ~name:"long" ~probability:0.1 ~duration:(Time.of_sec 4)
        ~num_records:4 ~record_size:100;
    ]

(* Record sizes spanning 25x, still averaging near the paper's 100 B
   so the standard generation sizing stays in reach. *)
let multi_size_mix () =
  Mix.create
    [
      Tx_type.make ~name:"tiny" ~probability:0.4 ~duration:(Time.of_ms 300)
        ~num_records:2 ~record_size:32;
      Tx_type.make ~name:"mid" ~probability:0.4 ~duration:(Time.of_ms 600)
        ~num_records:2 ~record_size:100;
      Tx_type.make ~name:"fat" ~probability:0.15 ~duration:(Time.of_sec 2)
        ~num_records:3 ~record_size:400;
      Tx_type.make ~name:"bulk" ~probability:0.05 ~duration:(Time.of_sec 3)
        ~num_records:4 ~record_size:800;
    ]

let uniform =
  {
    name = "uniform";
    description =
      "the paper's polite traffic: deterministic arrivals, uniform oid \
       drawing, fixed lifetimes";
    mix = standard_mix ();
    arrival = Arrival.Deterministic;
    draw = Draw.Uniform;
    lifetime = Lifetime.Fixed;
    max_retries = 0;
    retry_backoff = Time.of_ms 20;
    space_factor = 1.0;
  }

let zipf =
  {
    name = "zipf";
    description =
      "hot-key skew: Zipfian(0.9) oid drawing with contention aborts and \
       seeded-backoff retries";
    mix = standard_mix ();
    arrival = Arrival.Deterministic;
    draw = Draw.Zipfian { theta = 0.9 };
    lifetime = Lifetime.Fixed;
    max_retries = 4;
    retry_backoff = Time.of_ms 20;
    space_factor = 1.0;
  }

let burst =
  {
    name = "burst";
    description =
      "bursty arrivals: ON/OFF-modulated Poisson (400 ms bursts at 4x \
       intensity, 1.2 s gaps), uniform drawing";
    mix = standard_mix ();
    arrival =
      Arrival.Burst
        {
          on_mean = Time.of_ms 400;
          off_mean = Time.of_ms 1200;
          intensity = 4.0;
        };
    draw = Draw.Uniform;
    lifetime = Lifetime.Fixed;
    max_retries = 0;
    retry_backoff = Time.of_ms 20;
    space_factor = 1.0;
  }

let contention =
  {
    name = "contention";
    description =
      "hot-key pile-up: Zipfian(0.99) drawing, long write-set holds, deep \
       retry budget — aborts and retries are the point";
    mix =
      Mix.create
        [
          Tx_type.make ~name:"short" ~probability:0.8
            ~duration:(Time.of_ms 600) ~num_records:3 ~record_size:100;
          Tx_type.make ~name:"long" ~probability:0.2 ~duration:(Time.of_sec 4)
            ~num_records:5 ~record_size:100;
        ];
    arrival = Arrival.Deterministic;
    draw = Draw.Zipfian { theta = 0.99 };
    lifetime = Lifetime.Fixed;
    max_retries = 8;
    retry_backoff = Time.of_ms 10;
    space_factor = 1.0;
  }

let longtail =
  {
    name = "longtail";
    description =
      "long-tail lifetimes (Pareto 1.3, capped 6x) over a multi-record-size \
       mix: stragglers pin log space while fat records burn it";
    mix = multi_size_mix ();
    arrival = Arrival.Poisson;
    draw = Draw.Uniform;
    lifetime = Lifetime.Pareto { alpha = 1.3; cap = 6.0 };
    max_retries = 0;
    retry_backoff = Time.of_ms 20;
    space_factor = 2.5;
  }

let storm =
  {
    name = "storm";
    description =
      "everything at once: bursts, Zipfian(0.9) contention with retries, \
       Pareto lifetimes, multi-size records";
    mix = multi_size_mix ();
    arrival =
      Arrival.Burst
        {
          on_mean = Time.of_ms 500;
          off_mean = Time.of_ms 1000;
          intensity = 3.0;
        };
    draw = Draw.Zipfian { theta = 0.9 };
    lifetime = Lifetime.Pareto { alpha = 1.5; cap = 4.0 };
    max_retries = 5;
    retry_backoff = Time.of_ms 15;
    space_factor = 3.0;
  }

let all = [ uniform; zipf; burst; contention; longtail; storm ]
let names = List.map (fun p -> p.name) all
let find name = List.find_opt (fun p -> p.name = name) all

let adversarial p = p.name <> "uniform"

let pp ppf p = Format.fprintf ppf "%s" p.name
