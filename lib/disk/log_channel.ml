open El_model

type payload = unit -> int * Log_record.t list

type t = {
  engine : El_sim.Engine.t;
  write_time : Time.t;
  buffer_pool : int;
  queue : (payload option * (unit -> unit)) Queue.t;
  mutable busy : bool;
  mutable started : int;
  mutable completed : int;
  mutable peak : int;
  mutable overflows : int;
  mutable busy_until : Time.t;
  obs : El_obs.Obs.t option;
  label : int;  (* generation index in trace events; -1 when unnamed *)
  fault : El_fault.Injector.device_state option;
  mutable current_torn : float option;
  store : El_store.Log_store.t option;
  mutable in_service : payload option;
}

let create engine ~write_time ~buffer_pool ?obs ?(label = -1) ?fault ?store () =
  if buffer_pool <= 0 then invalid_arg "Log_channel.create: empty pool";
  if store <> None && label < 0 then
    invalid_arg "Log_channel.create: a store-backed channel needs a label";
  {
    engine;
    write_time;
    buffer_pool;
    queue = Queue.create ();
    busy = false;
    started = 0;
    completed = 0;
    peak = 0;
    overflows = 0;
    busy_until = Time.zero;
    obs;
    label;
    fault;
    current_torn = None;
    store;
    in_service = None;
  }

(* Each call site matches [t.obs] itself and builds its event only
   under [Some]: an event passed to a helper that matched would be
   allocated with observation off too. *)
let emit o kind = El_obs.Obs.emit o El_obs.Event.Channel kind

let count t name n =
  match t.obs with
  | None -> ()
  | Some o -> El_metrics.Counter.add (El_obs.Obs.counter o name) n

let in_flight t = t.started - t.completed

(* Resolve the op against the fault plan when one is armed.  The
   nominal path must return the channel's [write_time] value itself —
   not a recomputed equivalent — so that an armed-but-inert plan stays
   byte-identical to no plan at all. *)
let service_time t =
  match t.fault with
  | None -> t.write_time
  | Some ds ->
    let r =
      El_fault.Injector.next_op ds ~now:(El_sim.Engine.now t.engine)
    in
    t.current_torn <- r.El_fault.Injector.r_torn;
    let dev = El_fault.Fault_plan.device_name (El_fault.Injector.device ds) in
    if r.El_fault.Injector.r_retries > 0 then begin
      (match t.obs with
      | Some obs ->
        emit obs
          (El_obs.Event.Io_retry
             { device = dev; attempts = r.El_fault.Injector.r_retries })
      | None -> ());
      count t "fault.io_retries" r.El_fault.Injector.r_retries
    end;
    if r.El_fault.Injector.r_remapped then begin
      (match t.obs with
      | Some obs -> emit obs (El_obs.Event.Io_remap { device = dev })
      | None -> ());
      count t "fault.io_remaps" 1
    end;
    if El_fault.Injector.nominal r then t.write_time
    else
      Time.add
        (Time.of_sec_f
           (Time.to_sec_f t.write_time *. r.El_fault.Injector.r_latency))
        r.El_fault.Injector.r_penalty

(* Persist a completed block write before anything observes the
   completion: the store append (pwrite + barrier) must precede
   [on_complete] so that a commit acknowledged by a completion hook is
   already durable on the backend. *)
let persist_completed t payload =
  match (t.store, payload) with
  | Some store, Some p ->
    let slot, records = p () in
    El_store.Log_store.append_block store ~gen:t.label ~slot records
  | _ -> ()

let rec start_next t =
  match Queue.take_opt t.queue with
  | None -> t.busy <- false
  | Some (payload, on_complete) ->
    t.busy <- true;
    t.in_service <- payload;
    let service = service_time t in
    t.busy_until <- Time.add (El_sim.Engine.now t.engine) service;
    (match t.obs with
    | Some obs ->
      emit obs
        (El_obs.Event.Log_write_start { gen = t.label })
    | None -> ());
    El_sim.Engine.schedule_after t.engine service (fun () ->
        t.completed <- t.completed + 1;
        t.current_torn <- None;
        t.in_service <- None;
        persist_completed t payload;
        (match t.obs with
        | Some obs ->
          emit obs
            (El_obs.Event.Log_write_done { gen = t.label })
        | None -> ());
        on_complete ();
        start_next t)

let write ?payload t ~on_complete =
  if in_flight t >= t.buffer_pool then t.overflows <- t.overflows + 1;
  t.started <- t.started + 1;
  if in_flight t > t.peak then t.peak <- in_flight t;
  Queue.add (payload, on_complete) t.queue;
  if not t.busy then start_next t

let writes_started t = t.started
let writes_completed t = t.completed
let peak_in_flight t = t.peak
let pool_overflows t = t.overflows

let in_service_torn t = if t.busy then t.current_torn else None

(* Persist the crash image of the write currently in service.  A torn
   in-service write destroys the slot's old content and leaves a valid
   prefix of the new block, so it appends a newer segment with the
   destroyed tail written as corrupt entries.  A non-torn in-service
   write persists nothing: it has not completed, so the slot's previous
   segment stays newest.  Queued writes were never started and leave no
   trace either — exactly the simulator's [durable_blocks] view. *)
let crash_persist t =
  match (t.store, t.in_service, if t.busy then t.current_torn else None) with
  | Some store, Some p, Some f ->
    let slot, records = p () in
    let count = List.length records in
    let keep = El_store.Log_store.torn_keep ~count f in
    El_store.Log_store.append_block store ~gen:t.label ~slot
      ~torn_suffix:(count - keep) records
  | _ -> ()

let quiesce_time t =
  if not t.busy then El_sim.Engine.now t.engine
  else
    (* One write in service finishing at [busy_until], the rest queued
       behind it. *)
    Time.add t.busy_until (Time.mul_int t.write_time (Queue.length t.queue))
