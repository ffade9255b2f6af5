(** Recovery-time estimation.

    The paper does not simulate recovery but argues (§4, §6) that
    recovery time is proportional to the amount of log information,
    that EL's 28 × 2 KB blocks "can all fit in the main memory of many
    workstations", and that "recovery in less than a second may be
    feasible".  This module turns those claims into numbers with a
    simple disk/CPU cost model:

    - 15 ms of positioning (seek + rotation) per contiguous log region
      (a generation is one contiguous circular array on disk);
    - 1 ms of streaming transfer per 2 KB block;
    - 20 µs of CPU per record for the single redo pass.

    These are deliberately conservative early-1990s values in the
    spirit of the paper's 15 ms block writes. *)

open El_model

val single_pass : regions:int -> blocks:int -> records:int -> unit -> Time.t
(** Time to read [blocks] spread over [regions] contiguous areas and
    process [records] in one pass — EL's recovery, and this library's
    {!Recovery.recover}. *)

val estimate : Recovery.image -> Recovery.result -> Time.t
(** Estimate for an actual recovery: regions = 1 + generations is not
    recoverable from the image, so a single region per 2 KB-block run
    is approximated as [regions = 2] (stable log area + one wrap). *)

val fw_two_pass : blocks:int -> records:int -> unit -> Time.t
(** The traditional two-pass (undo then redo) method the paper
    contrasts with (§4): the span is read twice, records are examined
    twice. *)

val pp : Format.formatter -> Time.t -> unit
(** Pretty-print an estimate with millisecond resolution. *)
