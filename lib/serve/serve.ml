open El_model
module Engine = El_sim.Engine
module Experiment = El_harness.Experiment
module Generator = El_workload.Generator

type config = {
  image : string;
  fresh : bool;
  kind : Experiment.manager_kind;
  num_objects : int;
  group_fsync : bool;
      (* one pwrite + fsync per COMMIT (before its ack) instead of one
         per appended segment; acked durability is unchanged *)
}

let default_config ~image =
  {
    image;
    fresh = false;
    kind =
      Experiment.Ephemeral
        (El_core.Policy.default ~generation_sizes:[| 32; 32 |]);
    num_objects = 100_000;
    group_fsync = false;
  }

type t = {
  engine : Engine.t;
  store : El_store.Log_store.t;
  sink : Generator.sink;
  manager : Experiment.manager;
  killed : (int, unit) Hashtbl.t;  (* killed tids not yet told so *)
  recovered : El_recovery.Recovery.result;
  num_objects : int;
  mutable last_tid : int;
      (* the highest tid begun this session or carried by a record of
         the start-up scan; -1 when there is none *)
  mutable commits : int;  (* COMMIT commands acked, for the stat line *)
  acked : bool ref;  (* the COMMIT being run has acked *)
  on_ack : Time.t -> unit;  (* sets [acked] *)
  line : Protocol.line;  (* the words of the command being run *)
  reply : Buffer.t;  (* [exec]'s reply *)
}

(* Interactive transactions have no meaningful a-priori duration;
   a short guess steers EL's generation choice toward the young
   generation, which is where short transactions belong. *)
let expected_duration = Time.of_ms 50

let start cfg =
  (match cfg.kind with
  | Experiment.Firewall _ ->
    (* FW never flushes to a stable database: a restart loses acks *)
    invalid_arg "Serve.start: the FW baseline has no recovery model"
  | Experiment.Ephemeral _ | Experiment.Hybrid _ -> ());
  let backend = El_store.Backend.file ~path:cfg.image in
  let sync_mode =
    if cfg.group_fsync then El_store.Log_store.Manual
    else El_store.Log_store.Immediate
  in
  (* One scan serves both: attach truncates any torn tail and hands
     back the scan of what remains, exactly the durable prefix a
     crashed predecessor left behind. *)
  let store, scan =
    if cfg.fresh then
      let store = El_store.Log_store.create ~sync_mode backend in
      (store, El_store.Log_store.scan backend)
    else El_store.Log_store.attach_scan ~sync_mode backend
  in
  let recovered =
    El_recovery.Recovery.recover
      (El_recovery.Recovery.image_of_scan ~num_objects:cfg.num_objects scan)
  in
  let scanned_tid =
    List.fold_left
      (fun m (b : El_store.Log_store.block) ->
        List.fold_left
          (fun m (r : Log_record.t) -> max m (Ids.Tid.to_int r.Log_record.tid))
          m b.El_store.Log_store.sb_records)
      (-1) scan.El_store.Log_store.s_blocks
  in
  let engine = Engine.create ~seed:0 () in
  (* The harness plant on the attached image, with a 1 ms flush
     transfer.  Its traffic settings go unused: clients are the
     workload. *)
  let plant =
    Experiment.build_instance engine
      {
        (Experiment.default_config ~kind:cfg.kind
           ~mix:(El_workload.Mix.short_long ~long_fraction:0.0))
        with
        Experiment.flush_transfer = Time.of_ms 1;
      }
      ~store:(Some store) ~num_objects:cfg.num_objects ()
  in
  let killed = Hashtbl.create 64 in
  plant.Experiment.i_set_on_kill (fun tid ->
      Hashtbl.replace killed (Ids.Tid.to_int tid) ());
  let acked = ref false in
  {
    engine;
    store;
    sink = plant.Experiment.i_sink;
    manager = plant.Experiment.i_manager;
    killed;
    recovered;
    num_objects = cfg.num_objects;
    last_tid = scanned_tid;
    commits = 0;
    acked;
    on_ack = (fun _ -> acked := true);
    line = Protocol.line ();
    reply = Buffer.create 256;
  }

let recovered t = t.recovered

let close t =
  (* under --group-fsync, segments appended since the last COMMIT are
     still staged; a clean shutdown writes them out *)
  El_store.Log_store.sync t.store;
  El_store.Backend.close (El_store.Log_store.backend t.store)

(* ---- one command ---- *)

let settle t = Engine.run_all t.engine

let err o msg =
  Protocol.put o "err ";
  Protocol.put o msg

let bad_integer t o i =
  err o (Printf.sprintf "bad integer %S" (Protocol.word t.line i))

(* Recovery pairs records by tid, so a reused tid would let an old
   COMMIT vouch for the new transaction's writes (or the new COMMIT for
   an aborted one's): every BEGIN takes a fresh tid. *)
let begin_ t o =
  let tid = Protocol.arg t.line 1 in
  if tid < 0 then bad_integer t o 1
  else if tid <= t.last_tid then
    err o
      (Printf.sprintf "tid %d is not above %d, the highest tid used" tid
         t.last_tid)
  else begin
    t.last_tid <- tid;
    t.sink.Generator.begin_tx ~tid:(Ids.Tid.of_int tid) ~expected_duration;
    settle t;
    Protocol.put o "ok begun ";
    Protocol.put_int o tid
  end

(* The arguments are checked in order, and the first bad one named. *)
let write t o =
  let tid = Protocol.arg t.line 1 in
  let oid = Protocol.arg t.line 2 in
  let version = Protocol.arg t.line 3 in
  let size = if Protocol.arity t.line = 4 then Protocol.arg t.line 4 else 100 in
  if tid < 0 then bad_integer t o 1
  else if oid < 0 then bad_integer t o 2
  else if version < 0 then bad_integer t o 3
  else if size < 0 then bad_integer t o 4
  else if oid >= t.num_objects then
    err o (Printf.sprintf "oid %d out of range" oid)
  else begin
    t.sink.Generator.write_data ~tid:(Ids.Tid.of_int tid)
      ~oid:(Ids.Oid.of_int oid) ~version ~size;
    settle t;
    Protocol.put o "ok written ";
    Protocol.put_int o tid;
    Protocol.put o " ";
    Protocol.put_int o oid;
    Protocol.put o " ";
    Protocol.put_int o version
  end

let commit t o =
  let tid = Protocol.arg t.line 1 in
  if tid < 0 then bad_integer t o 1
  else begin
    t.acked := false;
    t.sink.Generator.request_commit ~tid:(Ids.Tid.of_int tid)
      ~on_ack:t.on_ack;
    (* Force partial buffers out and run every consequence: by the time
       drain+settle return, the COMMIT record's block has been appended
       — and fsynced, either per segment (Immediate) or by the single
       pwrite + group barrier below — so the ack below is an ack of
       durable state. *)
    Experiment.drain t.manager;
    settle t;
    El_store.Log_store.sync t.store;
    if !(t.acked) then begin
      t.commits <- t.commits + 1;
      Protocol.put o "ok committed ";
      Protocol.put_int o tid
    end
    else if Hashtbl.mem t.killed tid then begin
      Hashtbl.remove t.killed tid;
      err o (Printf.sprintf "killed %d" tid)
    end
    else err o (Printf.sprintf "commit of %d did not ack" tid)
  end

let abort t o =
  let tid = Protocol.arg t.line 1 in
  if tid < 0 then bad_integer t o 1
  else begin
    t.sink.Generator.request_abort ~tid:(Ids.Tid.of_int tid);
    settle t;
    Protocol.put o "ok aborted ";
    Protocol.put_int o tid
  end

(* The durable version of the object as of startup recovery: the stable
   database plus surviving log redo.  A commit that was acked, flushed
   and recirculated out of the log no longer appears in RECOVERED's tid
   list, but its version must. *)
let read t o =
  let oid = Protocol.arg t.line 1 in
  if oid < 0 then bad_integer t o 1
  else if oid >= t.num_objects then
    err o (Printf.sprintf "oid %d out of range" oid)
  else begin
    let v =
      match
        El_disk.Stable_db.version t.recovered.El_recovery.Recovery.recovered
          (Ids.Oid.of_int oid)
      with
      | Some v -> v
      | None -> 0
    in
    Protocol.put o "ok read ";
    Protocol.put_int o oid;
    Protocol.put o " ";
    Protocol.put_int o v
  end

let recovered_line t o =
  let tids =
    List.map Ids.Tid.to_int t.recovered.El_recovery.Recovery.committed_tids
    |> List.sort compare
  in
  Protocol.put o "recovered ";
  Protocol.put_int o (List.length tids);
  List.iter
    (fun n ->
      Protocol.put o " ";
      Protocol.put_int o n)
    tids

let stat t o =
  let backend = El_store.Log_store.backend t.store in
  let c = El_store.Backend.counters backend in
  let fsyncs_per_commit =
    float_of_int c.El_store.Backend.barriers /. float_of_int (max 1 t.commits)
  in
  Protocol.put o
    (Printf.sprintf
       "stat backend=%s pwrites=%d barriers=%d bytes=%d recovered=%d \
        commits=%d fsyncs_per_commit=%.2f group_fsync=%s"
       (El_store.Backend.name backend)
       c.El_store.Backend.pwrites c.El_store.Backend.barriers
       c.El_store.Backend.bytes_written
       (List.length t.recovered.El_recovery.Recovery.committed_tids)
       t.commits fsyncs_per_commit
       (match El_store.Log_store.sync_mode t.store with
       | El_store.Log_store.Manual -> "on"
       | El_store.Log_store.Immediate -> "off"))

(* A misused command (double begin, unknown tid, log overload…) raises
   out of the manager before any reply is written; the session survives
   it and the client learns why. *)
let guarded f t o =
  try f t o with
  | Invalid_argument m | Failure m -> err o m
  | El_core.El_manager.Log_overloaded m -> err o ("log overloaded: " ^ m)

(* Runs the command [t.line] has parsed and writes its reply to [o];
   [false] once the session should end. *)
let run t o (command : Protocol.command) =
  match command with
  | Blank -> true
  | Begin -> guarded begin_ t o; true
  | Write -> guarded write t o; true
  | Commit -> guarded commit t o; true
  | Abort -> guarded abort t o; true
  | Read -> read t o; true
  | Recovered -> recovered_line t o; true
  | Stat -> stat t o; true
  | Quit -> Protocol.put o "bye"; false
  | Malformed ->
    err o
      (Printf.sprintf "unknown or malformed command %S"
         (String.uppercase_ascii (Protocol.word t.line 0)));
    true

let exec t line =
  let command =
    Protocol.parse t.line (Bytes.unsafe_of_string line) ~start:0
      ~stop:(String.length line)
  in
  Buffer.clear t.reply;
  let continue = run t (Protocol.Buf t.reply) command in
  match command with
  | Blank -> (None, true)
  | _ -> (Some (Buffer.contents t.reply), continue)

let max_line = 65536

(* Runs the line [b.[start, stop)] and queues its reply; [false] once
   the session should end. *)
let answer t o b ~start ~stop =
  match Protocol.parse t.line b ~start ~stop with
  | Blank -> true
  | command ->
    let continue = run t o command in
    Protocol.put o "\n";
    continue

let serve_channel t ic oc =
  (* [b.[0, held)] is the start of a line whose newline has not
     arrived yet.  Each read appends what has arrived, every complete
     line in it runs in order, straight from [b], and all their replies
     leave in one flush before the next read can block.  A partial line
     that fills the buffer is refused and ends the session. *)
  let o = Protocol.Chan oc in
  let b = Bytes.create max_line in
  let held = ref 0 in
  let rec loop () =
    let n = input ic b !held (Bytes.length b - !held) in
    if n = 0 then begin
      (* EOF: a last line without its newline still runs *)
      if !held > 0 then ignore (answer t o b ~start:0 ~stop:!held);
      flush oc
    end
    else begin
      let stop = !held + n in
      (* the held bytes have no newline, so only the new ones are
         searched *)
      let rec lines start i =
        if i = stop then (start, true)
        else if Bytes.unsafe_get b i <> '\n' then lines start (i + 1)
        else if answer t o b ~start ~stop:i then lines (i + 1) (i + 1)
        else (i + 1, false)
      in
      let start, continue = lines 0 !held in
      flush oc;
      if continue then begin
        Bytes.blit b start b 0 (stop - start);
        held := stop - start;
        if !held < max_line then loop ()
        else begin
          err o (Printf.sprintf "line longer than %d bytes" max_line);
          Protocol.put o "\n";
          flush oc
        end
      end
    end
  in
  loop ()

let serve_socket t ~socket_path =
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX socket_path);
  Unix.listen sock 8;
  let rec accept_loop () =
    let fd, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (try serve_channel t ic oc with Sys_error _ -> ());
    (* One descriptor under both channels: closing the out channel
       flushes and closes the fd; the in channel must not be closed
       again. *)
    (try close_out oc with Sys_error _ -> ());
    accept_loop ()
  in
  accept_loop ()
