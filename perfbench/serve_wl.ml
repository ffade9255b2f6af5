(* serve-commit: one client process holds one Unix-socket connection
   to a spawned [el-sim serve --group-fsync] (EL, 32+32 generations,
   100 000 objects) whose image was pre-filled with a seeded history,
   and runs a closed loop of BEGIN + 4 WRITEs + COMMIT batches.  The
   client and the server share the CPU the launcher pinned us to. *)

open Util
module Serve = El_serve.Serve

type params = {
  el_sim : string;  (** the el-sim binary *)
  dir : string;  (** directory for the server's socket and log *)
  fill_image : string;  (** the pre-filled history *)
  run_image : string;  (** the spawned servers' copy of it *)
  scratch_image : string;  (** copies for the in-process probes *)
  seed : int;
  seconds : float;  (** length of one measured phase *)
  fill_txs : int;  (** transactions in the pre-filled history *)
  warmup_txs : int;  (** unmeasured transactions before each window *)
  segment_txs : int;  (** transactions in one measured window *)
  block_txs : int;  (** timed transactions between two host-speed readings *)
  rewarm_txs : int;  (** untimed transactions after each reading *)
  sample : int;  (** acked writes read back per crash point, per phase *)
  plant : string option;  (** a planted fault, for the self-test *)
}

let num_objects = 100_000
let writes_per_tx = 4
let write_size = 100

(* ---- the seeded command stream ---- *)

(* Versions are tids, so an object's last acked version is the
   largest tid that wrote it and committed. *)
let draw_oids rng =
  let oids = Array.make writes_per_tx (-1) in
  let i = ref 0 in
  while !i < writes_per_tx do
    let o = Random.State.int rng num_objects in
    if not (Array.mem o oids) then begin
      oids.(!i) <- o;
      incr i
    end
  done;
  oids

let tx_lines tid oids =
  let b = Buffer.create 160 in
  Printf.bprintf b "BEGIN %d\n" tid;
  Array.iter (fun o -> Printf.bprintf b "WRITE %d %d %d %d\n" tid o tid write_size) oids;
  Printf.bprintf b "COMMIT %d\n" tid;
  Buffer.contents b

let tx_expected tid oids =
  Array.concat
    [
      [| Printf.sprintf "ok begun %d" tid |];
      Array.map (fun o -> Printf.sprintf "ok written %d %d %d" tid o tid) oids;
      [| Printf.sprintf "ok committed %d" tid |];
    ]

(* Commands sent and commands answered [err]: the workload's
   attempted and failed counts. *)
let attempted = ref 0
let failed = ref 0

(* The acked state: last acked version per object, and the objects
   each phase wrote (the durability sample is drawn from them). *)
type ledger = { last : (int, int) Hashtbl.t; mutable written : int list }

let new_ledger () = { last = Hashtbl.create 65536; written = [] }

let ack ledger tid oids =
  Array.iter
    (fun o ->
      Hashtbl.replace ledger.last o tid;
      ledger.written <- o :: ledger.written)
    oids

(* Checks one response against the expected line.  A killed commit is
   a legal answer (counted as failed, its writes not acked); anything
   else unexpected fails the response gate. *)
let check_response ~expected got =
  incr attempted;
  if String.length got >= 3 && String.sub got 0 3 = "err" then incr failed;
  if got = expected then true
  else begin
    let killed =
      String.length expected > 13
      && String.sub expected 0 13 = "ok committed "
      && got = "err killed " ^ String.sub expected 13 (String.length expected - 13)
    in
    gate killed "response %S, expected %S" got expected;
    false
  end

(* ---- the pre-filled image ---- *)

let serve_config image ~fresh =
  { (Serve.default_config ~image) with Serve.fresh; group_fsync = true }

(* The history goes through Serve.exec in-process: the same code path
   as the socket server, without the socket. *)
let fill p ~image ~rng ledger =
  let t = Serve.start (serve_config image ~fresh:true) in
  for tid = 1 to p.fill_txs do
    let oids = draw_oids rng in
    let expected = tx_expected tid oids in
    let ok = ref true in
    List.iteri
      (fun i line ->
        if line <> "" then
          match Serve.exec t line with
          | Some r, _ -> if not (check_response ~expected:expected.(i) r) then ok := false
          | None, _ -> gate false "no response to %S" line)
      (String.split_on_char '\n' (tx_lines tid oids));
    if !ok then ack ledger tid oids
  done;
  Serve.close t

let copy_file src dst =
  let data = read_file src in
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

(* ---- the socket client ---- *)

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int; mutable len : int }

let send c s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd s !off (n - !off)
  done

let read_line c =
  let b = Buffer.create 32 in
  let rec loop () =
    if c.pos >= c.len then begin
      let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
      if n = 0 then raise End_of_file;
      c.pos <- 0;
      c.len <- n
    end;
    match Bytes.index_from_opt c.buf c.pos '\n' with
    | Some i when i < c.len ->
      Buffer.add_subbytes b c.buf c.pos (i - c.pos);
      c.pos <- i + 1;
      Buffer.contents b
    | _ ->
      Buffer.add_subbytes b c.buf c.pos (c.len - c.pos);
      c.pos <- c.len;
      loop ()
  in
  loop ()

type server = { pid : int; conn : conn; out : in_channel }

(* Servers not yet reaped; [reap] kills them if the run dies early. *)
let live = ref []

let reap () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Starts [el-sim serve] on [image] and connects once it listens.  The
   client blocks on the server's stderr until it reports listening, so
   it takes no CPU from the start-up it is timing.  The server inherits
   our CPU affinity. *)
let spawn p ~image ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process p.el_sim
      [| p.el_sim; "serve"; "--image"; image; "--socket"; sock; "--group-fsync" |]
      Unix.stdin w w
  in
  Unix.close w;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let rec await_listening said =
    match input_line out with
    | line ->
      if String.starts_with ~prefix:"el-sim serve: listening" line then ()
      else await_listening (line :: said)
    | exception End_of_file ->
      failwith ("el-sim serve exited before listening: " ^ String.concat " | " (List.rev said))
  in
  await_listening [];
  (* "listening" is printed just before the bind *)
  let rec connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      Unix.sleepf 0.00005;
      connect ()
  in
  let fd = connect () in
  { pid; conn = { fd; buf = Bytes.create 65536; pos = 0; len = 0 }; out }

let kill s =
  Unix.close s.conn.fd;
  close_in_noerr s.out;
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live

(* STAT's counters as an association list. *)
let stat s =
  send s.conn "STAT\n";
  let line = read_line s.conn in
  incr attempted;
  match words line with
  | "stat" :: kvs ->
    List.filter_map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i ->
          Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
        | None -> None)
      kvs
  | _ ->
    incr failed;
    gate false "STAT answered %S" line;
    []

let counter kvs key =
  match List.assoc_opt key kvs with
  | Some v -> ( try int_of_string v with Failure _ -> 0)
  | None -> 0

(* Reads back [oids] (pipelined) and checks each against its last
   acked version. *)
let verify s ledger oids =
  let expected o = Option.value (Hashtbl.find_opt ledger.last o) ~default:0 in
  send s.conn
    (String.concat "" (List.map (fun (o, _) -> Printf.sprintf "READ %d\n" o) oids));
  List.iter
    (fun (o, want) ->
      let want = match want with Some v -> v | None -> expected o in
      let got = read_line s.conn in
      let expected_line = Printf.sprintf "ok read %d %d" o want in
      incr attempted;
      if String.length got >= 3 && String.sub got 0 3 = "err" then incr failed;
      gate (got = expected_line) "durability: READ %d answered %S after a restart, expected %S"
        o got expected_line)
    oids

let sample rng n l =
  let a = Array.of_list l in
  if Array.length a = 0 then []
  else List.init n (fun _ -> a.(Random.State.int rng (Array.length a)))

(* One timed transaction; returns its latency in ms, or None when the
   commit was not acked. *)
let transaction s ledger ~tid ~oids =
  let expected = tx_expected tid oids in
  let lines = tx_lines tid oids in
  let t0 = now_ns () in
  send s.conn lines;
  let ok = ref true in
  Array.iter
    (fun e -> if not (check_response ~expected:e (read_line s.conn)) then ok := false)
    expected;
  let dt = secs_since t0 *. 1e3 in
  if !ok then begin
    ack ledger tid oids;
    Some dt
  end
  else None

(* One segment: a cold start on a fresh copy of the filled image, a
   warm-up, a measured window of [p.segment_txs] transactions, then a
   crash point (SIGKILL, restart, read back a sample of the history
   and of this segment's acked writes).  Every segment sends the same
   command stream, so its STAT deltas must repeat exactly. *)
type segment = {
  setup_s : float;  (** spawn to first response; all times at nominal speed *)
  commits : int;  (** acked in the window *)
  timed : int;  (** of those, timed: all but the re-warming ones *)
  wall_s : float;  (** the measured window *)
  p50_ms : float list;  (** commit latency percentiles of each block *)
  p99_ms : float list;
  barriers : int;  (** STAT deltas over the window *)
  bytes : int;
  pwrites : int;
  rss_mb : float;  (** the server's peak resident set *)
  server_cpu_s : float;
  server_wait_s : float;
  client_cpu_s : float;
  noop_rtt_us : float list;  (** STAT round trips (traced) *)
  crash_s : float;  (** SIGKILL to restarted and sample verified *)
}

let segment p ~(fill : ledger) ~sock ~traced ~first =
  copy_file p.fill_image p.run_image;
  let s, setup_s =
    Speed.time (fun () ->
        let s = spawn p ~image:p.run_image ~sock in
        ignore (stat s);
        s)
  in
  if first && p.plant = Some "unbegun-write" then begin
    (* a WRITE for a transaction that never began must be refused *)
    let tid = p.fill_txs + 1_000_000 in
    send s.conn (Printf.sprintf "WRITE %d 1 %d %d\n" tid tid write_size);
    ignore
      (check_response ~expected:(Printf.sprintf "ok written %d 1 %d" tid tid)
         (read_line s.conn))
  end;
  let ledger = { last = Hashtbl.copy fill.last; written = [] } in
  let rng = Random.State.make [| p.seed; 2 |] in
  let tid = ref p.fill_txs in
  let next () =
    incr tid;
    transaction s ledger ~tid:!tid ~oids:(draw_oids rng)
  in
  for _ = 1 to p.warmup_txs do
    ignore (next ())
  done;
  let noop_rtt_us =
    if traced then
      let rtts, k =
        Speed.around (fun () ->
            List.init 1000 (fun _ ->
                let t0 = now_ns () in
                ignore (stat s);
                secs_since t0 *. 1e6))
      in
      List.map (fun us -> us *. k) rtts
    else []
  in
  let pid = string_of_int s.pid in
  let before = stat s in
  (* The window runs in blocks with a host-speed reading between
     them; each block's times are scaled by its own factor.  A reading
     leaves the caches cold, so each block first re-warms them with a
     few untimed transactions, as the warm-up does for the window. *)
  let p50 = ref [] and p99 = ref [] and timed = ref 0 and rewarmed = ref 0 in
  let wall_s = ref 0.0 and server_cpu_s = ref 0.0 and server_wait_s = ref 0.0 in
  let client_cpu_s = ref 0.0 in
  let cpu_s tms = Unix.(tms.tms_utime +. tms.tms_stime) in
  for _ = 1 to p.segment_txs / p.block_txs do
    let block = Samples.create () in
    let (wall, cpu, wait, client), k =
      Speed.around (fun () ->
          for _ = 1 to p.rewarm_txs do
            if next () <> None then incr rewarmed
          done;
          let cpu0, wait0 = schedstat pid in
          let tms0 = Unix.times () in
          let t0 = now_ns () in
          for _ = 1 to p.block_txs do
            match next () with Some dt -> Samples.add block dt | None -> ()
          done;
          let wall = secs_since t0 in
          let tms1 = Unix.times () in
          let cpu1, wait1 = schedstat pid in
          (wall, (cpu1 -. cpu0) /. 1e9, (wait1 -. wait0) /. 1e9, cpu_s tms1 -. cpu_s tms0))
    in
    let sorted = Samples.sorted block in
    p50 := (percentile sorted 0.5 *. k) :: !p50;
    p99 := (percentile sorted 0.99 *. k) :: !p99;
    timed := !timed + Samples.count block;
    wall_s := !wall_s +. (wall *. k);
    server_cpu_s := !server_cpu_s +. (cpu *. k);
    server_wait_s := !server_wait_s +. (wait *. k);
    client_cpu_s := !client_cpu_s +. (client *. k)
  done;
  let after = stat s in
  let rss_mb = vm_hwm_mb pid in
  let delta k = counter after k - counter before k in
  let timed = !timed in
  let commits = timed + !rewarmed in
  gate (delta "commits" = commits) "STAT counted %d commits, the client saw %d acks"
    (delta "commits") commits;
  let vrng = Random.State.make [| p.seed; 3 |] in
  let planted =
    (* an expectation for a write that was never acked must fail *)
    if first && p.plant = Some "unacked-read" then [ (List.hd fill.written, Some (!tid + 1)) ]
    else []
  in
  let s, crash_s =
    Speed.time (fun () ->
        kill s;
        let s = spawn p ~image:p.run_image ~sock in
        verify s ledger
          (List.map (fun o -> (o, None)) (sample vrng p.sample fill.written)
          @ List.map (fun o -> (o, None)) (sample vrng p.sample ledger.written)
          @ planted);
        s)
  in
  kill s;
  {
    setup_s;
    commits;
    timed;
    wall_s = !wall_s;
    p50_ms = !p50;
    p99_ms = !p99;
    barriers = delta "barriers";
    bytes = delta "bytes";
    pwrites = delta "pwrites";
    rss_mb;
    server_cpu_s = !server_cpu_s;
    server_wait_s = !server_wait_s;
    client_cpu_s = !client_cpu_s;
    noop_rtt_us;
    crash_s;
  }

(* Segments until their measured windows add up to [p.seconds], at
   least two so the determinism gate has a pair to compare. *)
let run p ~fill ~tag ~traced =
  let sock = Filename.concat p.dir (tag ^ ".sock") in
  let rec loop acc measured =
    if List.length acc >= 2 && measured >= p.seconds then List.rev acc
    else
      let sg = segment p ~fill ~sock ~traced ~first:(acc = []) in
      loop (sg :: acc) (measured +. sg.wall_s)
  in
  let segs = loop [] 0.0 in
  let first = List.hd segs in
  List.iter
    (fun sg ->
      gate
        (sg.commits = first.commits && sg.barriers = first.barriers && sg.bytes = first.bytes
       && sg.pwrites = first.pwrites)
        "determinism: a segment's STAT deltas differ from the first's")
    segs;
  segs

(* Replays [txs] transactions of the measured stream in-process on a
   copy of the filled image, timing each Serve.exec by verb; returns
   the per-verb samples in us (at the host's speed of the moment), the
   factor that takes them to nominal speed, and the GC work. *)
let replay p ~txs =
  copy_file p.fill_image p.scratch_image;
  let t = Serve.start (serve_config p.scratch_image ~fresh:false) in
  let rng = Random.State.make [| p.seed; 2 |] in
  let verbs = [ ("BEGIN", Samples.create ()); ("WRITE", Samples.create ()); ("COMMIT", Samples.create ()) ] in
  let gc0 = gc_now () in
  let (), k =
    Speed.around (fun () ->
        for i = 0 to txs - 1 do
          let tid = p.fill_txs + 1 + i in
          let oids = draw_oids rng in
          List.iter
            (fun line ->
              if line <> "" then begin
                let t0 = now_ns () in
                ignore (Serve.exec t line);
                let us = secs_since t0 *. 1e6 in
                Samples.add (List.assoc (List.hd (words line)) verbs) us
              end)
            (String.split_on_char '\n' (tx_lines tid oids))
        done)
  in
  let gc = gc_since gc0 in
  Serve.close t;
  (verbs, k, gc)

let med f segs = median (List.map f segs)

let end_to_end segs =
  let first = List.hd segs in
  [
    m "setup_s" "s" (med (fun sg -> sg.setup_s) segs);
    m "commits_per_s" "1/s" (med (fun sg -> float_of_int sg.timed /. sg.wall_s) segs);
    m "commit_p50_ms" "ms" (median (List.concat_map (fun sg -> sg.p50_ms) segs));
    m "commit_p99_ms" "ms" (median (List.concat_map (fun sg -> sg.p99_ms) segs));
    m "fsyncs_per_commit" "1" (ratio first.barriers first.commits);
    m "write_amp" "1"
      (ratio first.bytes (first.commits * writes_per_tx * write_size));
    m "points_per_s" "1/s" (1.0 /. med (fun sg -> sg.crash_s) segs);
    m "peak_rss_mb" "MB" (med (fun sg -> sg.rss_mb) segs);
  ]

(* The traced run's layer probes, all on copies of the filled image. *)
let layers p segs ~replay_txs =
  (* Times over the timed transactions, STAT counts over all acked *)
  let per_timed f = med (fun sg -> f sg /. float_of_int (max 1 sg.timed)) segs in
  let per_commit f = med (fun sg -> f sg /. float_of_int (max 1 sg.commits)) segs in
  let verbs, k, gc = replay p ~txs:replay_txs in
  let verb v = percentile (Samples.sorted (List.assoc v verbs)) 0.5 *. k in
  let start_s =
    let starts, k =
      Speed.around (fun () ->
          List.init 3 (fun _ ->
              copy_file p.fill_image p.scratch_image;
              let t, dt =
                time (fun () -> Serve.start (serve_config p.scratch_image ~fresh:false))
              in
              Serve.close t;
              dt))
    in
    median starts *. k
  in
  let with_backend f =
    let b = El_store.Backend.file ~path:p.fill_image in
    Fun.protect ~finally:(fun () -> El_store.Backend.close b) (fun () -> f b)
  in
  let scan_s =
    Speed.median_time 3 (fun () -> with_backend (fun b -> ignore (El_store.Log_store.scan b)))
  in
  let recover_s =
    Speed.median_time 3 (fun () ->
        with_backend (fun b -> ignore (El_recovery.Recovery.recover_store ~num_objects b)))
  in
  let recovered = with_backend (El_recovery.Recovery.recover_store ~num_objects) in
  [
    m "serve.begin_us" "us" (verb "BEGIN");
    m "serve.write_us" "us" (verb "WRITE");
    m "serve.commit_us" "us" (verb "COMMIT");
    m "serve.start_s" "s" start_s;
    m "serve.noop_rtt_us" "us" (median (List.concat_map (fun sg -> sg.noop_rtt_us) segs));
    m "serve.server_cpu_us" "us" (per_timed (fun sg -> sg.server_cpu_s *. 1e6));
    m "serve.client_cpu_us" "us" (per_timed (fun sg -> sg.client_cpu_s *. 1e6));
    m "serve.runq_wait_us" "us" (per_timed (fun sg -> sg.server_wait_s *. 1e6));
    m "store.scan_s" "s" scan_s;
    m "store.image_mb" "MB" (float_of_int (Unix.stat p.fill_image).Unix.st_size /. 1048576.0);
    m "store.pwrites_per_commit" "1" (per_commit (fun sg -> float_of_int sg.pwrites));
    m "store.bytes_per_commit" "B" (per_commit (fun sg -> float_of_int sg.bytes));
    m "recovery.recover_store_s" "s" recover_s;
    m "recovery.records_scanned" "count"
      (float_of_int recovered.El_recovery.Recovery.records_scanned);
  ]
  @ gc_metrics gc ~commits:replay_txs

(* Fills the image, then runs once untraced and, when [traced], once
   more with the layer probes: (untraced end-to-end, traced end-to-end
   and layers). *)
let workload p ~traced ~replay_txs =
  let history = new_ledger () in
  fill p ~image:p.fill_image ~rng:(Random.State.make [| p.seed; 1 |]) history;
  let plain = run p ~fill:history ~tag:"plain" ~traced:false in
  let traced_result =
    if traced then
      let r = run p ~fill:history ~tag:"traced" ~traced:true in
      Some (end_to_end r, layers p r ~replay_txs)
    else None
  in
  (end_to_end plain, traced_result)
