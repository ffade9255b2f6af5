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
  }

let recovered t = t.recovered

let close t =
  (* under --group-fsync, segments appended since the last COMMIT are
     still staged; a clean shutdown writes them out *)
  El_store.Log_store.sync t.store;
  El_store.Backend.close (El_store.Log_store.backend t.store)

let ok fmt = Printf.ksprintf (fun s -> "ok " ^ s) fmt
let err fmt = Printf.ksprintf (fun s -> "err " ^ s) fmt

let exec t line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  let settle () = Engine.run_all t.engine in
  let with_int s k =
    match int_of_string_opt s with
    | Some n when n >= 0 -> k n
    | Some _ | None -> err "bad integer %S" s
  in
  (* A misused command (double begin, unknown tid, log overload…)
     raises out of the manager; the session survives it and the
     client learns why. *)
  let guarded f = try f () with
    | Invalid_argument m | Failure m -> err "%s" m
    | El_core.El_manager.Log_overloaded m -> err "log overloaded: %s" m
  in
  match words with
  | [] -> (None, true)
  | verb :: args -> (
    match (String.uppercase_ascii verb, args) with
    | "BEGIN", [ tid ] ->
      (* Recovery pairs records by tid, so a reused tid would let an
         old COMMIT vouch for the new transaction's writes (or the new
         COMMIT for an aborted one's): every BEGIN takes a fresh tid. *)
      let r =
        guarded (fun () ->
            with_int tid (fun n ->
                if n <= t.last_tid then
                  err "tid %d is not above %d, the highest tid used" n
                    t.last_tid
                else begin
                  t.last_tid <- n;
                  t.sink.Generator.begin_tx ~tid:(Ids.Tid.of_int n)
                    ~expected_duration;
                  settle ();
                  ok "begun %d" n
                end))
      in
      (Some r, true)
    | "WRITE", ([ _; _; _ ] | [ _; _; _; _ ]) ->
      let tid, oid, version, size =
        match args with
        | [ a; b; c ] -> (a, b, c, "100")
        | [ a; b; c; d ] -> (a, b, c, d)
        | _ -> assert false
      in
      let r =
        guarded (fun () ->
            with_int tid (fun tn ->
                with_int oid (fun on ->
                    with_int version (fun vn ->
                        with_int size (fun sn ->
                            if on >= t.num_objects then
                              err "oid %d out of range" on
                            else begin
                              t.sink.Generator.write_data
                                ~tid:(Ids.Tid.of_int tn)
                                ~oid:(Ids.Oid.of_int on) ~version:vn ~size:sn;
                              settle ();
                              ok "written %d %d %d" tn on vn
                            end)))))
      in
      (Some r, true)
    | "COMMIT", [ tid ] ->
      let r =
        guarded (fun () ->
            with_int tid (fun n ->
                let acked_at = ref None in
                t.sink.Generator.request_commit ~tid:(Ids.Tid.of_int n)
                  ~on_ack:(fun at -> acked_at := Some at);
                (* Force partial buffers out and run every consequence:
                   by the time drain+settle return, the COMMIT record's
                   block has been appended — and fsynced, either per
                   segment (Immediate) or by the single pwrite + group
                   barrier below — so the ack below is an ack of durable
                   state. *)
                Experiment.drain t.manager;
                settle ();
                El_store.Log_store.sync t.store;
                match !acked_at with
                | Some _ ->
                  t.commits <- t.commits + 1;
                  ok "committed %d" n
                | None ->
                  if Hashtbl.mem t.killed n then begin
                    Hashtbl.remove t.killed n;
                    err "killed %d" n
                  end
                  else err "commit of %d did not ack" n))
      in
      (Some r, true)
    | "ABORT", [ tid ] ->
      let r =
        guarded (fun () ->
            with_int tid (fun n ->
                t.sink.Generator.request_abort ~tid:(Ids.Tid.of_int n);
                settle ();
                ok "aborted %d" n))
      in
      (Some r, true)
    | "READ", [ oid ] ->
      (* The durable version of the object as of startup recovery: the
         stable database plus surviving log redo.  A commit that was
         acked, flushed and recirculated out of the log no longer
         appears in RECOVERED's tid list, but its version must. *)
      let r =
        with_int oid (fun on ->
            if on >= t.num_objects then err "oid %d out of range" on
            else
              let v =
                match
                  El_disk.Stable_db.version
                    t.recovered.El_recovery.Recovery.recovered
                    (Ids.Oid.of_int on)
                with
                | Some v -> v
                | None -> 0
              in
              ok "read %d %d" on v)
      in
      (Some r, true)
    | "RECOVERED", [] ->
      let tids =
        List.map Ids.Tid.to_int t.recovered.El_recovery.Recovery.committed_tids
        |> List.sort compare
      in
      let b = Buffer.create 64 in
      Buffer.add_string b (Printf.sprintf "recovered %d" (List.length tids));
      List.iter (fun n -> Buffer.add_string b (Printf.sprintf " %d" n)) tids;
      (Some (Buffer.contents b), true)
    | "STAT", [] ->
      let backend = El_store.Log_store.backend t.store in
      let c = El_store.Backend.counters backend in
      let fsyncs_per_commit =
        float_of_int c.El_store.Backend.barriers
        /. float_of_int (max 1 t.commits)
      in
      ( Some
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
             | El_store.Log_store.Immediate -> "off")),
        true )
    | "QUIT", [] -> (Some "bye", false)
    | verb, _ -> (Some (err "unknown or malformed command %S" verb), true))

(* Runs one line and queues its reply; [false] once the session
   should end. *)
let answer t oc line =
  let response, continue = exec t line in
  (match response with
  | None -> ()
  | Some r ->
    output_string oc r;
    output_char oc '\n');
  continue

let max_line = 65536

let serve_channel t ic oc =
  (* [b.[0, held)] is the start of a line whose newline has not
     arrived yet.  Each read appends what has arrived, every complete
     line in it runs in order, and all their replies leave in one
     flush before the next read can block.  A partial line that fills
     the buffer is refused and ends the session. *)
  let b = Bytes.create max_line in
  let held = ref 0 in
  let rec loop () =
    let n = input ic b !held (Bytes.length b - !held) in
    if n = 0 then begin
      (* EOF: a last line without its newline still runs *)
      if !held > 0 then ignore (answer t oc (Bytes.sub_string b 0 !held));
      flush oc
    end
    else begin
      let stop = !held + n in
      (* the held bytes have no newline, so only the new ones are
         searched *)
      let rec lines start i =
        if i = stop then (start, true)
        else if Bytes.unsafe_get b i <> '\n' then lines start (i + 1)
        else if answer t oc (Bytes.sub_string b start (i - start)) then
          lines (i + 1) (i + 1)
        else (i + 1, false)
      in
      let start, continue = lines 0 !held in
      flush oc;
      if continue then begin
        Bytes.blit b start b 0 (stop - start);
        held := stop - start;
        if !held < max_line then loop ()
        else begin
          output_string oc (err "line longer than %d bytes" max_line);
          output_char oc '\n';
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
