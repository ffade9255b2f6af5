open El_model

type unflushed_policy = Keep_in_log | Force_flush
type placement = Youngest | Lifetime_hint

type t = {
  generation_sizes : int array;
  recirculate : bool;
  unflushed : unflushed_policy;
  placement : placement;
  block_payload : int;
  forward_backfill : bool;
  group_commit_timeout : Time.t option;
  unsafe_eager_dispose : bool;
}

let validate t =
  if Array.length t.generation_sizes = 0 then
    invalid_arg "Policy: no generations";
  Array.iteri
    (fun i size ->
      if size < Params.head_tail_gap + 1 then
        invalid_arg
          (Printf.sprintf
             "Policy: generation %d has %d blocks; needs at least gap+1 = %d"
             i size (Params.head_tail_gap + 1)))
    t.generation_sizes;
  if t.block_payload <= 0 then invalid_arg "Policy: non-positive payload"

let default ~generation_sizes =
  let t =
    {
      generation_sizes;
      recirculate = true;
      unflushed = Keep_in_log;
      placement = Youngest;
      block_payload = Params.block_payload;
      forward_backfill = true;
      group_commit_timeout = None;
      unsafe_eager_dispose = false;
    }
  in
  validate t;
  t

let num_generations t = Array.length t.generation_sizes
let total_blocks t = Array.fold_left ( + ) 0 t.generation_sizes
