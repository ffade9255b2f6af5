open El_model

let positioning = Time.of_ms 15
let per_block = Time.of_ms 1
let per_record = Time.of_us 20

let single_pass ~regions ~blocks ~records () =
  if regions < 0 || blocks < 0 || records < 0 then
    invalid_arg "Timing.single_pass: negative inputs";
  Time.add
    (Time.add
       (Time.mul_int positioning regions)
       (Time.mul_int per_block blocks))
    (Time.mul_int per_record records)

let estimate (image : Recovery.image)
    (result : Recovery.result) =
  (* records per 2000-byte block is what the image actually held *)
  let blocks =
    (* conservative: assume the mean record was 100 bytes when the
       image does not say; derive from actual sizes instead *)
    let bytes =
      List.fold_left
        (fun acc (b : Recovery.block) ->
          List.fold_left
            (fun acc (r : Log_record.t) -> acc + r.Log_record.size)
            acc b.Recovery.records)
        0 image.Recovery.blocks
    in
    (bytes + Params.block_payload - 1) / Params.block_payload
  in
  single_pass ~regions:2 ~blocks ~records:result.Recovery.records_scanned ()

let fw_two_pass ~blocks ~records () =
  single_pass ~regions:2 ~blocks:(2 * blocks) ~records:(2 * records) ()

let pp ppf t = Format.fprintf ppf "%.1f ms" (Time.to_sec_f t *. 1000.0)
