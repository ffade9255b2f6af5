open El_model

type request = {
  mutable oid : int;
  mutable version : int;
  mutable forced : bool;
  mutable seq : int;  (* arrival order, for FIFO scheduling and tie-breaks *)
}
(* Every field is mutable so retired request records can be recycled
   through a free list: the completion path reads what it needs into
   locals before the record goes back to the pool, so the steady-state
   request flow allocates nothing. *)

module Int_map = Map.Make (Int)

(* One priority class (forced or unforced) of a drive's pending set.
   The elevator index is a hierarchical bitset over the drive's oid
   range — insert and delete are allocation-free word stores, which is
   what keeps index maintenance cheaper than the linear scan even when
   the backlog is deep and picks are rare (the scarce-flush regime
   that used to invert the Indexed/Reference ranking).  The by-seq
   balanced map is maintained only under [Fifo] scheduling, the one
   discipline that picks by arrival order. *)
type index = {
  bits : Oid_bitset.t;  (* pending oids, drive-relative *)
  mutable by_seq : request Int_map.t;  (* [Fifo] scheduling only *)
}

type drive = {
  lo : int;
  span : int;  (* number of oids owned: [lo, lo + span) *)
  mutable position : int;  (* oid last written; starts at lo *)
  mutable has_history : bool;  (* false until the first flush *)
  pending_tbl : (int, request) Hashtbl.t;  (* every pending request, by oid *)
  normal : index;  (* unforced requests (Indexed implementation only) *)
  urgent : index;  (* forced requests (Indexed implementation only) *)
  mutable busy : bool;
}

type scheduling = Nearest | Fifo

type implementation = Indexed | Reference

type t = {
  engine : El_sim.Engine.t;
  transfer_time : Time.t;
  num_objects : int;
  drives : drive array;
  scheduling : scheduling;
  implementation : implementation;
  mutable on_flush : (Ids.Oid.t -> version:int -> unit) option;
  mutable observers : (Ids.Oid.t -> version:int -> unit) list;
  mutable next_seq : int;
  mutable spare : request list;  (* retired request records, for reuse *)
  mutable pending_count : int;
  mutable peak_backlog : int;
  mutable completed : int;
  mutable forced_count : int;
  mutable superseded : int;
  distances : El_metrics.Running_stat.t;
  obs : El_obs.Obs.t option;
  fault : El_fault.Injector.device_state option array;
  store : El_store.Log_store.t option;
}

let empty_index span = { bits = Oid_bitset.create span; by_seq = Int_map.empty }

let create engine ~drives ~transfer_time ~num_objects
    ?(scheduling = Nearest) ?(implementation = Indexed) ?obs ?fault ?store () =
  if drives <= 0 then invalid_arg "Flush_array.create: no drives";
  if num_objects <= 0 || num_objects mod drives <> 0 then
    invalid_arg "Flush_array.create: num_objects must be a positive multiple of drives";
  if Time.(transfer_time <= Time.zero) then
    invalid_arg "Flush_array.create: non-positive transfer time";
  let span = num_objects / drives in
  let make_drive i =
    {
      lo = i * span;
      span;
      position = i * span;
      has_history = false;
      pending_tbl = Hashtbl.create 64;
      normal = empty_index span;
      urgent = empty_index span;
      busy = false;
    }
  in
  {
    engine;
    transfer_time;
    num_objects;
    drives = Array.init drives make_drive;
    scheduling;
    implementation;
    on_flush = None;
    observers = [];
    next_seq = 0;
    spare = [];
    pending_count = 0;
    peak_backlog = 0;
    completed = 0;
    forced_count = 0;
    superseded = 0;
    distances = El_metrics.Running_stat.create ~name:"flush oid distance" ();
    obs;
    fault =
      Array.init drives (fun i ->
          Option.map (fun inj -> El_fault.Injector.flush_drive inj i) fault);
    store;
  }

let set_on_flush t f = t.on_flush <- Some f

(* Observers ride along the owner's [on_flush] hook (called after it,
   in registration order): passive instruments — the spec oracle's
   flush-completion feed — that must see every completion without
   displacing the manager's own completion path. *)
let add_flush_observer t f = t.observers <- t.observers @ [ f ]

(* Each call site matches [t.obs] itself and builds its event only
   under [Some]: an event passed to a helper that matched would be
   allocated with observation off too. *)
let emit o kind = El_obs.Obs.emit o El_obs.Event.Disk kind

let drive_index t d = d.lo / t.drives.(0).span

let drive_of t oid =
  let o = Ids.Oid.to_int oid in
  if o < 0 || o >= t.num_objects then
    invalid_arg "Flush_array: oid out of range";
  t.drives.(o / t.drives.(0).span)

(* ---- index maintenance (Indexed implementation) ---- *)

let class_of d r = if r.forced then d.urgent else d.normal

let index_add t d idx r =
  Oid_bitset.add idx.bits (r.oid - d.lo);
  match t.scheduling with
  | Fifo -> idx.by_seq <- Int_map.add r.seq r idx.by_seq
  | Nearest -> ()

let index_remove t d idx r =
  Oid_bitset.remove idx.bits (r.oid - d.lo);
  match t.scheduling with
  | Fifo -> idx.by_seq <- Int_map.remove r.seq idx.by_seq
  | Nearest -> ()

(* ---- picking the next request ----

   Both implementations follow the same normalized order:
   1. forced requests before unforced ones;
   2. within a class, the scheduling discipline's key — wrapped oid
      distance from the drive position under [Nearest], arrival [seq]
      under [Fifo];
   3. equal keys (two oids exactly equidistant on opposite sides of
      the position) resolve to the *earlier arrival* (smaller [seq]).
   The explicit seq tie-break replaces the hash-table iteration order
   the linear scan historically relied on, so both implementations are
   deterministic and agree request-for-request. *)

(* The retained linear scan: O(B) per pick over the whole backlog.
   Kept as the differential-testing baseline and as the benchmark
   reference the elevator index is measured against. *)
let pick_next_reference t d =
  let dist oid =
    Ids.Oid.distance ~wrap:d.span (Ids.Oid.of_int oid)
      (Ids.Oid.of_int d.position)
  in
  let best = ref None in
  let consider r =
    match !best with
    | None -> best := Some r
    | Some b ->
      let better =
        if r.forced <> b.forced then r.forced
        else
          match t.scheduling with
          | Fifo -> r.seq < b.seq
          | Nearest ->
            let dr = dist r.oid and db = dist b.oid in
            dr < db || (dr = db && r.seq < b.seq)
      in
      if better then best := Some r
  in
  Hashtbl.iter (fun _ r -> consider r) d.pending_tbl;
  !best

(* The elevator pick: the nearest pending oid on a circle is either
   the circular successor or the circular predecessor of the drive
   position, each one bitset walk (a word per summary level). *)
let pick_nearest_indexed d idx =
  let pos = d.position - d.lo in
  let succ =
    match Oid_bitset.next_geq idx.bits pos with
    | Some _ as s -> s
    | None -> Oid_bitset.min_elt idx.bits  (* wrap *)
  in
  let pred =
    match Oid_bitset.prev_lt idx.bits pos with
    | Some _ as p -> p
    | None -> Oid_bitset.max_elt idx.bits  (* wrap *)
  in
  let req o = Hashtbl.find d.pending_tbl (o + d.lo) in
  match (succ, pred) with
  | None, None -> None
  | Some o, None | None, Some o -> Some (req o)
  | Some s, Some p ->
    if s = p then Some (req s)
    else
      let dist o =
        Ids.Oid.distance ~wrap:d.span
          (Ids.Oid.of_int (o + d.lo))
          (Ids.Oid.of_int d.position)
      in
      let ds = dist s and dp = dist p in
      if ds < dp then Some (req s)
      else if dp < ds then Some (req p)
      else
        (* equidistant on opposite sides: earlier arrival wins *)
        let rs = req s and rp = req p in
        if rs.seq < rp.seq then Some rs else Some rp

let pick_next_indexed t d =
  let idx =
    if not (Oid_bitset.is_empty d.urgent.bits) then d.urgent else d.normal
  in
  match t.scheduling with
  | Fifo -> (
    match Int_map.min_binding_opt idx.by_seq with
    | Some (_, r) -> Some r
    | None -> None)
  | Nearest -> pick_nearest_indexed d idx

let pick_next t d =
  (match t.obs with
  | None -> ()
  | Some o -> El_metrics.Counter.incr (El_obs.Obs.counter o "flush.picks"));
  match t.implementation with
  | Reference -> pick_next_reference t d
  | Indexed -> pick_next_indexed t d

let count t name n =
  match t.obs with
  | None -> ()
  | Some o -> El_metrics.Counter.add (El_obs.Obs.counter o name) n

(* Resolve the transfer against the drive's fault state when a plan is
   armed.  Nominal resolutions reuse the exact [transfer_time] value so
   armed-but-inert plans stay byte-identical.  Torn verdicts on flush
   transfers are deliberately ignored: the stable version only changes
   via [on_flush] at completion, so a transfer interrupted by a crash
   leaves the old (consistent) object image in place — there is no
   partially-applied state to tear. *)
let transfer_service t d =
  match t.fault.(drive_index t d) with
  | None -> t.transfer_time
  | Some ds ->
    let r =
      El_fault.Injector.next_op ds ~now:(El_sim.Engine.now t.engine)
    in
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
    if El_fault.Injector.nominal r then t.transfer_time
    else
      Time.add
        (Time.of_sec_f
           (Time.to_sec_f t.transfer_time *. r.El_fault.Injector.r_latency))
        r.El_fault.Injector.r_penalty

let rec dispatch t d =
  match pick_next t d with
  | None -> d.busy <- false
  | Some r ->
    d.busy <- true;
    (* A dispatched request's fields are frozen — a later write to the
       same oid enqueues a fresh record — so copy them out and recycle
       the record now rather than holding it across the transfer. *)
    let oid = r.oid and version = r.version and forced = r.forced in
    Hashtbl.remove d.pending_tbl oid;
    (match t.implementation with
    | Indexed -> index_remove t d (class_of d r) r
    | Reference -> ());
    t.spare <- r :: t.spare;
    (match t.obs with
    | Some obs ->
      emit obs
        (El_obs.Event.Flush_start { drive = drive_index t d; oid })
    | None -> ());
    El_sim.Engine.schedule_after t.engine (transfer_service t d) (fun () ->
        let distance =
          if d.has_history then
            Ids.Oid.distance ~wrap:d.span (Ids.Oid.of_int oid)
              (Ids.Oid.of_int d.position)
          else 0
        in
        if d.has_history then begin
          El_metrics.Running_stat.observe t.distances (float_of_int distance);
          match t.obs with
          | None -> ()
          | Some o ->
            El_obs.Histogram.observe
              (El_obs.Obs.histogram ~lowest:1.0 ~buckets:24 o
                 "flush.oid_distance")
              (float_of_int distance)
        end;
        (match t.obs with
        | Some obs ->
          emit obs
            (El_obs.Event.Flush_done { drive = drive_index t d; oid; distance })
        | None -> ());
        d.position <- oid;
        d.has_history <- true;
        t.pending_count <- t.pending_count - 1;
        t.completed <- t.completed + 1;
        if forced then t.forced_count <- t.forced_count + 1;
        (* Persist the stable install before [on_flush] runs: the hook
           applies the version to the stable DB and lets the log record
           become garbage, which is only sound once the install itself
           is durable on the backend. *)
        (match t.store with
        | Some store ->
          El_store.Log_store.append_stable store ~oid:(Ids.Oid.of_int oid)
            ~version
        | None -> ());
        (match t.on_flush with
        | Some f -> f (Ids.Oid.of_int oid) ~version
        | None -> ());
        List.iter (fun f -> f (Ids.Oid.of_int oid) ~version) t.observers;
        dispatch t d)

let enqueue t oid ~version ~forced =
  let d = drive_of t oid in
  let o = Ids.Oid.to_int oid in
  (match t.obs with
  | Some obs -> emit obs (El_obs.Event.Flush_request { oid = o; forced })
  | None -> ());
  (match Hashtbl.find_opt d.pending_tbl o with
  | Some r ->
    (* Supersede in place: keep the single pending slot, newest version.
       A forced supersede promotes the request into the urgent class. *)
    r.version <- version;
    if forced && not r.forced then begin
      (match t.implementation with
      | Indexed ->
        index_remove t d d.normal r;
        r.forced <- true;
        index_add t d d.urgent r
      | Reference -> r.forced <- true)
    end;
    t.superseded <- t.superseded + 1
  | None ->
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let r =
      match t.spare with
      | r :: rest ->
        t.spare <- rest;
        r.oid <- o;
        r.version <- version;
        r.forced <- forced;
        r.seq <- seq;
        r
      | [] -> { oid = o; version; forced; seq }
    in
    Hashtbl.replace d.pending_tbl o r;
    (match t.implementation with
    | Indexed -> index_add t d (class_of d r) r
    | Reference -> ());
    t.pending_count <- t.pending_count + 1;
    if t.pending_count > t.peak_backlog then t.peak_backlog <- t.pending_count);
  if not d.busy then dispatch t d

let request t oid ~version = enqueue t oid ~version ~forced:false
let request_forced t oid ~version = enqueue t oid ~version ~forced:true

let pending t = t.pending_count
let peak_backlog t = t.peak_backlog
let flushes_completed t = t.completed
let forced_flushes t = t.forced_count
let superseded t = t.superseded
let mean_distance t = El_metrics.Running_stat.mean t.distances
let distance_stat t = t.distances

let max_rate_per_sec t =
  float_of_int (Array.length t.drives) /. Time.to_sec_f t.transfer_time

let check_invariants t =
  Array.iter
    (fun d ->
      match t.implementation with
      | Reference -> ()
      | Indexed ->
        let n = ref 0 in
        let audit idx ~forced =
          Oid_bitset.iter idx.bits (fun o ->
              incr n;
              let oid = o + d.lo in
              match Hashtbl.find_opt d.pending_tbl oid with
              | Some r ->
                assert (r.oid = oid);
                assert (r.forced = forced);
                (match t.scheduling with
                | Fifo ->
                  assert (
                    match Int_map.find_opt r.seq idx.by_seq with
                    | Some r' -> r' == r
                    | None -> false)
                | Nearest -> ())
              | None -> assert false);
          match t.scheduling with
          | Fifo -> assert (Oid_bitset.cardinal idx.bits = Int_map.cardinal idx.by_seq)
          | Nearest -> assert (Int_map.is_empty idx.by_seq)
        in
        audit d.normal ~forced:false;
        audit d.urgent ~forced:true;
        assert (!n = Hashtbl.length d.pending_tbl))
    t.drives
