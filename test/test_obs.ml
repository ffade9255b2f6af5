open El_model
module Experiment = El_harness.Experiment
module Policy = El_core.Policy
module Mix = El_workload.Mix
module Histogram = El_obs.Histogram
module Ring = El_obs.Ring
module Obs = El_obs.Obs
module Export = El_obs.Export

(* ---- log-scale histogram ---- *)

let test_histogram_bucket_boundaries () =
  (* base 2, lowest 1, 4 interior buckets: [1,2) [2,4) [4,8) [8,16),
     underflow below 1, overflow from 16.  An observation exactly on a
     boundary lands in the bucket whose lower bound it equals. *)
  let h = Histogram.create ~base:2.0 ~lowest:1.0 ~buckets:4 () in
  let idx = Histogram.bucket_index h in
  Alcotest.(check int) "negative -> underflow" 0 (idx (-3.0));
  Alcotest.(check int) "0.5 -> underflow" 0 (idx 0.5);
  Alcotest.(check int) "1.0 -> first bucket" 1 (idx 1.0);
  Alcotest.(check int) "1.999 -> first bucket" 1 (idx 1.999);
  Alcotest.(check int) "2.0 -> second bucket" 2 (idx 2.0);
  Alcotest.(check int) "7.999 -> third bucket" 3 (idx 7.999);
  Alcotest.(check int) "8.0 -> fourth bucket" 4 (idx 8.0);
  Alcotest.(check int) "15.999 -> fourth bucket" 4 (idx 15.999);
  Alcotest.(check int) "16.0 -> overflow" 5 (idx 16.0);
  Alcotest.(check int) "1e9 -> overflow" 5 (idx 1e9);
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "bounds of [2,4)" (2.0, 4.0)
    (Histogram.bucket_bounds h 2);
  let lo, hi = Histogram.bucket_bounds h 0 in
  Alcotest.(check bool) "underflow bounds" true (lo = neg_infinity && hi = 1.0);
  let lo, hi = Histogram.bucket_bounds h 5 in
  Alcotest.(check bool) "overflow bounds" true (lo = 16.0 && hi = infinity)

let test_histogram_observe_and_stats () =
  let h = Histogram.create ~base:2.0 ~lowest:1.0 ~buckets:8 () in
  List.iter (Histogram.observe h) [ 1.0; 3.0; 3.5; 100.0; 0.25; nan ];
  Alcotest.(check int) "NaN ignored" 5 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 107.75 (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "min" 0.25 (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Histogram.max_value h);
  Alcotest.(check int) "bucket [2,4) holds two" 2
    (Histogram.bucket_count h (Histogram.bucket_index h 3.0));
  (* percentile is an upper bound clamped to the observed max *)
  Alcotest.(check bool) "p50 bounds the median" true
    (Histogram.percentile h 0.5 >= 3.0);
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 100.0
    (Histogram.percentile h 1.0)

let test_histogram_merge () =
  let a = Histogram.create ~base:2.0 ~lowest:1.0 ~buckets:8 () in
  let b = Histogram.create ~base:2.0 ~lowest:1.0 ~buckets:8 () in
  List.iter (Histogram.observe a) [ 1.0; 5.0 ];
  List.iter (Histogram.observe b) [ 5.5; 300.0; 0.1 ];
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 5 (Histogram.count m);
  Alcotest.(check (float 1e-9)) "merged min" 0.1 (Histogram.min_value m);
  Alcotest.(check (float 1e-9)) "merged max" 300.0 (Histogram.max_value m);
  Alcotest.(check int) "merged bucket [4,8) holds two" 2
    (Histogram.bucket_count m (Histogram.bucket_index m 5.0));
  (* originals untouched *)
  Alcotest.(check int) "a unchanged" 2 (Histogram.count a);
  let odd = Histogram.create ~base:2.0 ~lowest:1.0 ~buckets:4 () in
  Alcotest.check_raises "shape mismatch rejected"
    (Invalid_argument "Histogram.merge: incompatible bucket layouts") (fun () ->
      ignore (Histogram.merge a odd))

(* ---- trace ring ---- *)

let test_ring_wraparound_keeps_newest () =
  let r = Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Ring.push r i
  done;
  Alcotest.(check int) "length capped" 4 (Ring.length r);
  Alcotest.(check int) "pushed total" 10 (Ring.pushed r);
  Alcotest.(check int) "dropped = pushed - kept" 6 (Ring.dropped r);
  Alcotest.(check (list int)) "newest retained, oldest first" [ 6; 7; 8; 9 ]
    (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check int) "clear empties" 0 (Ring.length r);
  Alcotest.(check (list int)) "clear empties list" [] (Ring.to_list r)

let test_obs_ring_drops_oldest_events () =
  let engine = El_sim.Engine.create () in
  let obs =
    Obs.create
      ~config:{ Obs.ring_capacity = 8; sample_period = Time.of_ms 100 }
      engine
  in
  for i = 0 to 19 do
    Obs.emit_at obs ~at:(Time.of_ms i) El_obs.Event.Harness
      (El_obs.Event.Mark (string_of_int i))
  done;
  Alcotest.(check int) "emitted" 20 (Obs.emitted obs);
  Alcotest.(check int) "recorded" 8 (Obs.recorded obs);
  Alcotest.(check int) "dropped" 12 (Obs.dropped obs);
  match Obs.events obs with
  | { El_obs.Event.kind = Mark m; at; _ } :: _ ->
    Alcotest.(check string) "oldest retained is #12" "12" m;
    Alcotest.(check int) "stamped at 12 ms" (Time.to_us (Time.of_ms 12))
      (Time.to_us at)
  | _ -> Alcotest.fail "expected a Mark event"

(* ---- Chrome trace export: valid JSON, time-ordered ---- *)

(* A deliberately strict little JSON reader — enough to audit our own
   exporter without an external dependency.  Raises [Failure] on any
   malformed input, including trailing garbage. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at byte %d" msg !pos) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then (
      pos := !pos + l;
      v)
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' ->
        advance ();
        Buffer.contents b
      | '\\' ->
        advance ();
        (match peek () with
        | '"' | '\\' | '/' -> Buffer.add_char b (peek ())
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          for _ = 1 to 4 do
            advance ()
          done;
          Buffer.add_char b '?'
        | _ -> fail "bad escape");
        advance ();
        go ()
      | '\255' -> fail "eof in string"
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numeric = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while numeric (peek ()) do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      parse_obj []
    | '[' ->
      advance ();
      parse_list []
    | '"' -> Jstr (parse_string ())
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | 'n' -> literal "null" Jnull
    | _ -> parse_number ()
  and parse_obj acc =
    skip_ws ();
    if peek () = '}' then (
      advance ();
      Jobj (List.rev acc))
    else (
      let k = parse_string () in
      skip_ws ();
      expect ':';
      let v = parse_value () in
      skip_ws ();
      match peek () with
      | ',' ->
        advance ();
        parse_obj ((k, v) :: acc)
      | '}' ->
        advance ();
        Jobj (List.rev ((k, v) :: acc))
      | _ -> fail "expected ',' or '}'")
  and parse_list acc =
    skip_ws ();
    if peek () = ']' then (
      advance ();
      Jlist (List.rev acc))
    else (
      let v = parse_value () in
      skip_ws ();
      match peek () with
      | ',' ->
        advance ();
        parse_list (v :: acc)
      | ']' ->
        advance ();
        Jlist (List.rev (v :: acc))
      | _ -> fail "expected ',' or ']'")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | Jobj fields -> List.assoc_opt k fields
  | _ -> None

let observed_cfg kind =
  {
    (Experiment.default_config ~kind
       ~mix:(Mix.short_long ~long_fraction:0.05)) with
    Experiment.runtime = Time.of_sec 20;
    observer = Some Obs.default_config;
  }

let el_18_12 =
  Experiment.Ephemeral (Policy.default ~generation_sizes:[| 18; 12 |])

(* Each manager kind with its occupancy probe columns and the ring
   size (in blocks) that bounds each. *)
let observed_kinds =
  [
    ("el", el_18_12, [ ("gen0_occupancy", 18); ("gen1_occupancy", 12) ]);
    ("fw", Experiment.Firewall 200, [ ("fw_occupancy", 200) ]);
    ( "hybrid",
      Experiment.Hybrid [| 18; 12 |],
      [ ("queue0_occupancy", 18); ("queue1_occupancy", 12) ] );
  ]

let test_chrome_trace_valid_and_ordered () =
  let live = Experiment.prepare (observed_cfg el_18_12) in
  let (_ : Experiment.result) = live.Experiment.finish () in
  let obs = Option.get live.Experiment.obs in
  let doc = parse_json (Export.chrome_trace obs) in
  let events =
    match member "traceEvents" doc with
    | Some (Jlist l) -> l
    | _ -> Alcotest.fail "traceEvents list missing"
  in
  Alcotest.(check bool) "has events" true (List.length events > 100);
  let ph e =
    match member "ph" e with Some (Jstr p) -> p | _ -> Alcotest.fail "no ph"
  in
  let timed = List.filter (fun e -> ph e <> "M") events in
  let phases = List.sort_uniq compare (List.map ph timed) in
  Alcotest.(check (list string)) "instant and counter events" [ "C"; "i" ]
    phases;
  let ts e =
    match member "ts" e with Some (Jnum t) -> t | _ -> Alcotest.fail "no ts"
  in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> ts a <= ts b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "timed events in nondecreasing ts order" true
    (nondecreasing timed);
  List.iter
    (fun e ->
      (match member "pid" e with
      | Some (Jnum _) -> ()
      | _ -> Alcotest.fail "event without pid");
      match ph e with
      | "i" -> (
        match member "s" e with
        | Some (Jstr "t") -> ()
        | _ -> Alcotest.fail "instant without thread scope")
      | "C" -> (
        match Option.bind (member "args" e) (member "value") with
        | Some (Jnum _) -> ()
        | _ -> Alcotest.fail "counter without args.value")
      | _ -> ())
    timed;
  (* the summary export must be valid JSON too *)
  match member "schema" (parse_json (Export.summary_json obs)) with
  | Some (Jstr "el-obs-summary/1") -> ()
  | _ -> Alcotest.fail "summary schema marker missing"

let test_timeseries_csv_shape () =
  List.iter
    (fun (name, kind, occupancy) ->
      let live = Experiment.prepare (observed_cfg kind) in
      let (_ : Experiment.result) = live.Experiment.finish () in
      let obs = Option.get live.Experiment.obs in
      let lines =
        String.split_on_char '\n' (String.trim (Export.timeseries_csv obs))
      in
      let label what = Printf.sprintf "%s: %s" name what in
      match lines with
      | header :: rows ->
        let cols = String.split_on_char ',' header in
        Alcotest.(check string) (label "first column is time_s") "time_s"
          (List.hd cols);
        Alcotest.(check bool) (label "probe columns present") true
          (List.mem "flush_backlog" cols
          && List.for_all (fun (c, _) -> List.mem c cols) occupancy);
        (* 20 s at 100 ms: samples at 0.0 .. 20.0 inclusive *)
        Alcotest.(check int) (label "one row per 100 ms") 201
          (List.length rows);
        List.iter
          (fun line ->
            let cells = String.split_on_char ',' line in
            Alcotest.(check int) (label "row arity matches header")
              (List.length cols) (List.length cells);
            let row = List.combine cols cells in
            List.iter
              (fun (c, size) ->
                let cell = List.assoc c row in
                let v = float_of_string cell in
                if not (v >= 0.0 && v <= float_of_int size) then
                  Alcotest.failf "%s: %s = %s outside [0, %d]" name c cell
                    size)
              occupancy)
          rows
      | [] -> Alcotest.fail (label "empty csv"))
    observed_kinds

(* ---- determinism: observability must not perturb the simulation ---- *)

let test_observer_does_not_change_result () =
  List.iter
    (fun (name, kind, _) ->
      let cfg = observed_cfg kind in
      let off = Experiment.run { cfg with Experiment.observer = None } in
      let on = Experiment.run cfg in
      Alcotest.(check bool)
        (name ^ ": same-seed results byte-identical")
        true
        (Marshal.to_string off [] = Marshal.to_string on []))
    observed_kinds

let suite =
  [
    Alcotest.test_case "histogram: bucket boundaries" `Quick
      test_histogram_bucket_boundaries;
    Alcotest.test_case "histogram: observe/stats" `Quick
      test_histogram_observe_and_stats;
    Alcotest.test_case "histogram: merge" `Quick test_histogram_merge;
    Alcotest.test_case "ring: wraparound keeps newest" `Quick
      test_ring_wraparound_keeps_newest;
    Alcotest.test_case "obs: ring drops oldest events" `Quick
      test_obs_ring_drops_oldest_events;
    Alcotest.test_case "export: chrome trace valid & ordered" `Quick
      test_chrome_trace_valid_and_ordered;
    Alcotest.test_case "export: timeseries csv shape" `Quick
      test_timeseries_csv_shape;
    Alcotest.test_case "observer leaves result unchanged" `Quick
      test_observer_does_not_change_result;
  ]
