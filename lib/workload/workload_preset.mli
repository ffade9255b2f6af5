(** Named adversarial workload scenarios.

    A preset bundles every workload-level knob — the transaction mix,
    the arrival process, the oid-drawing policy, the lifetime
    distribution and the contention retry budget — under a stable
    name, so the CLI ([--scenario]), the scenario matrix
    ([el-sim check --scenario all]), the bench [workloads] section and
    the tests all mean exactly the same traffic when they say
    ["storm"].

    The six presets cover the adversity axes of ROADMAP item 4:

    - [uniform]   — the paper's polite baseline
    - [zipf]      — hot-key skew with moderate contention
    - [burst]     — ON/OFF arrival bursts at 4x intensity
    - [contention]— a deliberate hot-key pile-up (deep retry budget)
    - [longtail]  — Pareto lifetimes over a 25x record-size spread
    - [storm]     — all of the above at once

    Every preset is deterministic under a seed: same seed + same
    preset ⇒ Marshal-byte-identical results (pinned in
    [test/test_scenario.ml]). *)

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
      (** log-space appetite relative to the paper's standard mix
          (1.0).  Sweeps that run the standard manager geometries
          ([El_check.Sweep.standard_config], the scenario matrix)
          scale generation sizes by this factor — the paper's own
          discipline of sizing the log to the offered load.  The
          multi-size presets need it: fat records roughly double the
          bytes per transaction and Pareto tails stretch log
          residency, so at the polite-traffic geometry the managers
          would honestly stall into kills and overload instead of
          sweeping cleanly. *)
}

val uniform : t
val zipf : t
val burst : t
val contention : t
val longtail : t
val storm : t

val all : t list
(** In presentation order: uniform, zipf, burst, contention, longtail,
    storm. *)

val names : string list
val find : string -> t option

val adversarial : t -> bool
(** Every preset except [uniform]. *)

val pp : Format.formatter -> t -> unit
