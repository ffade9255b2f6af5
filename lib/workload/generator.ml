open El_model

type sink = {
  begin_tx : tid:Ids.Tid.t -> expected_duration:Time.t -> unit;
  write_data :
    tid:Ids.Tid.t -> oid:Ids.Oid.t -> version:int -> size:int -> unit;
  request_commit : tid:Ids.Tid.t -> on_ack:(Time.t -> unit) -> unit;
  request_abort : tid:Ids.Tid.t -> unit;
}

type tx_state = Running | Commit_wait | Done | Aborted | Killed

type tx = {
  tid : Ids.Tid.t;
  ty : Tx_type.t;  (** duration already scaled by the lifetime draw *)
  attempt : int;  (** 0 for a fresh arrival, k for its k-th retry *)
  mutable state : tx_state;
  mutable held_oids : Ids.Oid.t list;
  mutable commit_requested_at : Time.t;
}

type t = {
  engine : El_sim.Engine.t;
  sink : sink;
  pool : Oid_pool.t;
  drawer : Draw.drawer;
  lifetime : Lifetime.t;
  epsilon : Time.t;
  abort_fraction : float;
  max_retries : int;
  retry_backoff : Time.t;
  runtime : Time.t;
  on_contention : tid:Ids.Tid.t -> oid:Ids.Oid.t -> attempt:int -> unit;
  on_retry : tid:Ids.Tid.t -> attempt:int -> unit;
  txs : tx Ids.Tid.Table.t;
      (* launched transactions until they reach [Done] or [Aborted]:
         only [kill] reads it, and a [Killed] entry stays so a repeated
         kill is a no-op *)
  mutable next_tid : int;
  mutable started : int;
  mutable committed : int;
  mutable aborted : int;
  mutable killed : int;
  mutable active : int;
  mutable awaiting_ack : int;
  mutable data_records : int;
  mutable contention_aborts : int;
  mutable retries : int;
  latency : El_metrics.Running_stat.t;
}

let release_oids t tx =
  List.iter (fun oid -> Oid_pool.release t.pool oid) tx.held_oids;
  tx.held_oids <- []

let finish t tx =
  (* End of lifetime: release the write set (the transaction is no
     longer active once it requests termination), then commit or, for
     fault-injection runs, abort. *)
  release_oids t tx;
  let wants_abort =
    t.abort_fraction > 0.0
    && Random.State.float (El_sim.Engine.rng t.engine) 1.0 < t.abort_fraction
  in
  if wants_abort then begin
    tx.state <- Aborted;
    Ids.Tid.Table.remove t.txs tx.tid;
    t.active <- t.active - 1;
    t.aborted <- t.aborted + 1;
    t.sink.request_abort ~tid:tx.tid
  end
  else begin
    tx.state <- Commit_wait;
    t.active <- t.active - 1;
    t.awaiting_ack <- t.awaiting_ack + 1;
    tx.commit_requested_at <- El_sim.Engine.now t.engine;
    t.sink.request_commit ~tid:tx.tid ~on_ack:(fun ack_time ->
        if tx.state = Commit_wait then begin
          tx.state <- Done;
          Ids.Tid.Table.remove t.txs tx.tid;
          t.awaiting_ack <- t.awaiting_ack - 1;
          t.committed <- t.committed + 1;
          El_metrics.Running_stat.observe t.latency
            (Time.to_sec_f (Time.sub ack_time tx.commit_requested_at))
        end)
  end

(* Launches one transaction of the given (already lifetime-scaled)
   type and schedules its whole record timeline; shared by fresh
   arrivals and contention retries. *)
let rec launch t ty ~attempt =
  let tid = Ids.Tid.of_int t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let tx =
    {
      tid;
      ty;
      attempt;
      state = Running;
      held_oids = [];
      commit_requested_at = Time.zero;
    }
  in
  Ids.Tid.Table.replace t.txs tid tx;
  t.started <- t.started + 1;
  t.active <- t.active + 1;
  t.sink.begin_tx ~tid ~expected_duration:ty.Tx_type.duration;
  List.iter
    (fun offset ->
      El_sim.Engine.schedule_after t.engine offset (fun () ->
          if tx.state = Running then write_one_data_record t tx))
    (Tx_type.record_schedule ty ~epsilon:t.epsilon);
  El_sim.Engine.schedule_after t.engine (Tx_type.commit_offset ty) (fun () ->
      if tx.state = Running then finish t tx);
  tid

and write_one_data_record t tx =
  match Draw.candidate t.drawer (El_sim.Engine.rng t.engine) with
  | None -> (
    (* Uniform: the pool picks any free object; collisions are hidden
       by rejection sampling (the paper's §3 model). *)
    match Oid_pool.acquire t.pool (El_sim.Engine.rng t.engine) with
    | None -> ()  (* database fully held: drop the update (stress tests only) *)
    | Some oid -> write_record t tx oid)
  | Some oid ->
    (* Skewed draw: the distribution picked a specific object.  Our
       own write set may be re-updated freely; another active writer's
       object is a contention collision. *)
    if List.exists (fun o -> Ids.Oid.compare o oid = 0) tx.held_oids then
      write_data t tx oid
    else if Oid_pool.claim t.pool oid then write_record t tx oid
    else contended t tx oid

and write_record t tx oid =
  tx.held_oids <- oid :: tx.held_oids;
  write_data t tx oid

(* The n-th data record of the run installs version n: versions only
   have to rise per object, and the record count does that without a
   per-object counter. *)
and write_data t tx oid =
  t.data_records <- t.data_records + 1;
  t.sink.write_data ~tid:tx.tid ~oid ~version:t.data_records
    ~size:tx.ty.Tx_type.record_size

(* A draw landed on another active writer's object: abort this
   transaction (its records become garbage, exactly like a
   fault-injection abort) and, within the retry budget, relaunch it
   as a fresh transaction after a seeded exponential backoff. *)
and contended t tx oid =
  t.contention_aborts <- t.contention_aborts + 1;
  t.on_contention ~tid:tx.tid ~oid ~attempt:tx.attempt;
  tx.state <- Aborted;
  Ids.Tid.Table.remove t.txs tx.tid;
  release_oids t tx;
  t.active <- t.active - 1;
  t.aborted <- t.aborted + 1;
  t.sink.request_abort ~tid:tx.tid;
  if tx.attempt < t.max_retries then begin
    let base = Time.mul_int t.retry_backoff (1 lsl Stdlib.min tx.attempt 10) in
    let jitter =
      Arrival.exponential (El_sim.Engine.rng t.engine)
        ~mean:(Time.div_int base 2)
    in
    let backoff = Time.add base jitter in
    (* Retries never start past the end of arrivals: a backoff landing
       beyond the runtime is dropped, so the settled state of a sweep
       is not chasing stragglers born after the run ended. *)
    if Time.(Time.add (El_sim.Engine.now t.engine) backoff < t.runtime) then begin
      t.retries <- t.retries + 1;
      let attempt = tx.attempt + 1 in
      El_sim.Engine.schedule_after t.engine backoff (fun () ->
          let tid = launch t tx.ty ~attempt in
          t.on_retry ~tid ~attempt)
    end
  end

let scaled_type t ty =
  let s = Lifetime.scale t.lifetime (El_sim.Engine.rng t.engine) in
  if s = 1.0 then ty
  else
    {
      ty with
      Tx_type.duration =
        Time.of_sec_f (Time.to_sec_f ty.Tx_type.duration *. s);
    }

let start_tx t mix =
  let ty = scaled_type t (Mix.sample mix (El_sim.Engine.rng t.engine)) in
  ignore (launch t ty ~attempt:0)

type arrival_process = Arrival.process =
  | Deterministic
  | Poisson
  | Burst of { on_mean : Time.t; off_mean : Time.t; intensity : float }

let create engine ~sink ~mix ~arrival_rate ~runtime
    ?(arrival_process = Deterministic) ?(epsilon = Params.epsilon)
    ?(abort_fraction = 0.0) ?(draw = Draw.Uniform) ?(lifetime = Lifetime.Fixed)
    ?(max_retries = 0) ?(retry_backoff = Time.of_ms 20)
    ?(on_contention = fun ~tid:_ ~oid:_ ~attempt:_ -> ())
    ?(on_retry = fun ~tid:_ ~attempt:_ -> ()) ~num_objects () =
  if arrival_rate <= 0.0 then invalid_arg "Generator.create: zero rate";
  if Time.(runtime <= zero) then
    invalid_arg "Generator.create: non-positive runtime";
  if abort_fraction < 0.0 || abort_fraction > 1.0 then
    invalid_arg "Generator.create: abort fraction outside [0,1]";
  if max_retries < 0 then invalid_arg "Generator.create: negative retries";
  if Time.(retry_backoff <= Time.zero) then
    invalid_arg "Generator.create: non-positive backoff";
  Lifetime.validate lifetime;
  let t =
    {
      engine;
      sink;
      pool = Oid_pool.create ~num_objects;
      drawer = Draw.make draw ~num_objects;
      lifetime;
      epsilon;
      abort_fraction;
      max_retries;
      retry_backoff;
      runtime;
      on_contention;
      on_retry;
      txs = Ids.Tid.Table.create 4096;
      next_tid = 0;
      started = 0;
      committed = 0;
      aborted = 0;
      killed = 0;
      active = 0;
      awaiting_ack = 0;
      data_records = 0;
      contention_aborts = 0;
      retries = 0;
      latency = El_metrics.Running_stat.create ~name:"commit latency (s)" ();
    }
  in
  let sampler = Arrival.create arrival_process ~rate:arrival_rate in
  let rec arrival at =
    if Time.(at < runtime) then
      El_sim.Engine.schedule_at engine at (fun () ->
          start_tx t mix;
          arrival (Time.add at (Arrival.next sampler (El_sim.Engine.rng engine))))
  in
  arrival Time.zero;
  t

let kill t tid =
  match Ids.Tid.Table.find_opt t.txs tid with
  | None -> invalid_arg "Generator.kill: unknown tid"
  | Some tx -> (
    match tx.state with
    | Killed -> ()
    | Running ->
      tx.state <- Killed;
      release_oids t tx;
      t.active <- t.active - 1;
      t.killed <- t.killed + 1
    | Commit_wait | Done | Aborted ->
      invalid_arg "Generator.kill: transaction is no longer active")

let oid_pool t = t.pool
let started t = t.started
let committed t = t.committed
let aborted t = t.aborted
let killed t = t.killed
let active t = t.active
let awaiting_ack t = t.awaiting_ack
let data_records_written t = t.data_records
let contention_aborts t = t.contention_aborts
let retries t = t.retries
let commit_latency t = t.latency
