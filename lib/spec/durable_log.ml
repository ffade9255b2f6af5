open El_model
module Oid_map = Map.Make (Ids.Oid)
module Tid_map = Map.Make (Ids.Tid)

type tx_phase = Running | Log_extended | Acked | Aborted | Killed

type tx = { phase : tx_phase; writes : int Oid_map.t }

type t = {
  txs : tx Tid_map.t;
  acked : int Oid_map.t;
  flushed : int Oid_map.t;
  stable_floor : int Oid_map.t;
}

type step =
  | Begin of Ids.Tid.t
  | Append of Ids.Tid.t * Ids.Oid.t * int
  | Log_extension of Ids.Tid.t
  | Commit_ack of Ids.Tid.t
  | Abort of Ids.Tid.t
  | Kill of Ids.Tid.t
  | Flush_complete of Ids.Oid.t * int
  | Superblock_advance of Ids.Oid.t * int
  | Crash

let init =
  {
    txs = Tid_map.empty;
    acked = Oid_map.empty;
    flushed = Oid_map.empty;
    stable_floor = Oid_map.empty;
  }

let pp_step ppf = function
  | Begin tid -> Format.fprintf ppf "Begin %a" Ids.Tid.pp tid
  | Append (tid, oid, v) ->
    Format.fprintf ppf "Append (%a, %a, v%d)" Ids.Tid.pp tid Ids.Oid.pp oid v
  | Log_extension tid -> Format.fprintf ppf "Log_extension %a" Ids.Tid.pp tid
  | Commit_ack tid -> Format.fprintf ppf "Commit_ack %a" Ids.Tid.pp tid
  | Abort tid -> Format.fprintf ppf "Abort %a" Ids.Tid.pp tid
  | Kill tid -> Format.fprintf ppf "Kill %a" Ids.Tid.pp tid
  | Flush_complete (oid, v) ->
    Format.fprintf ppf "Flush_complete (%a, v%d)" Ids.Oid.pp oid v
  | Superblock_advance (oid, v) ->
    Format.fprintf ppf "Superblock_advance (%a, v%d)" Ids.Oid.pp oid v
  | Crash -> Format.pp_print_string ppf "Crash"

let error step fmt =
  Format.kasprintf
    (fun msg -> Error (Format.asprintf "%a: %s" pp_step step msg))
    fmt

let acked_version t oid = Oid_map.find_opt oid t.acked
let flushed_version t oid = Oid_map.find_opt oid t.flushed
let floor_version t oid = Oid_map.find_opt oid t.stable_floor

(* The crash step: every in-memory structure (transaction table,
   buffers, ledger) vanishes; the durable contract — acked commits,
   completed flushes, the superblock floor — survives by definition.
   That the *implementation* also preserves it is exactly what the
   differential check against a recovered image establishes. *)
let crash t = { t with txs = Tid_map.empty }

let step t s =
  match s with
  | Begin tid -> (
    match Tid_map.find_opt tid t.txs with
    | Some _ -> error s "duplicate begin"
    | None ->
      Ok
        {
          t with
          txs =
            Tid_map.add tid { phase = Running; writes = Oid_map.empty } t.txs;
        })
  | Append (tid, oid, v) -> (
    if v <= 0 then error s "non-positive version"
    else
      match Tid_map.find_opt tid t.txs with
      | None -> error s "append by unknown transaction"
      | Some { phase = Running; writes } ->
        Ok
          {
            t with
            txs =
              Tid_map.add tid
                { phase = Running; writes = Oid_map.add oid v writes }
                t.txs;
          }
      | Some _ -> error s "append outside the running phase")
  | Log_extension tid -> (
    match Tid_map.find_opt tid t.txs with
    | None -> error s "log extension by unknown transaction"
    | Some ({ phase = Running; _ } as tx) ->
      Ok { t with txs = Tid_map.add tid { tx with phase = Log_extended } t.txs }
    | Some _ -> error s "log extension outside the running phase")
  | Commit_ack tid -> (
    match Tid_map.find_opt tid t.txs with
    | None -> error s "ack for unknown transaction"
    | Some ({ phase = Log_extended; writes } as tx) ->
      let acked =
        Oid_map.fold
          (fun oid v acc ->
            match Oid_map.find_opt oid acc with
            | Some w when w >= v -> acc
            | Some _ | None -> Oid_map.add oid v acc)
          writes t.acked
      in
      Ok
        { t with txs = Tid_map.add tid { tx with phase = Acked } t.txs; acked }
    | Some _ -> error s "ack without a preceding log extension")
  | Abort tid -> (
    match Tid_map.find_opt tid t.txs with
    | None -> error s "abort of unknown transaction"
    | Some ({ phase = Running; _ } as tx) ->
      Ok { t with txs = Tid_map.add tid { tx with phase = Aborted } t.txs }
    | Some _ -> error s "abort outside the running phase")
  | Kill tid -> (
    match Tid_map.find_opt tid t.txs with
    | None -> error s "kill of unknown transaction"
    | Some ({ phase = Running; _ } as tx) ->
      Ok { t with txs = Tid_map.add tid { tx with phase = Killed } t.txs }
    | Some _ -> error s "kill outside the running phase")
  | Flush_complete (oid, v) -> (
    match Oid_map.find_opt oid t.acked with
    | None -> error s "flush completion for a never-acked object"
    | Some a when v > a -> error s "flush completion ahead of acked v%d" a
    | Some _ -> (
      match Oid_map.find_opt oid t.flushed with
      | Some f when v < f -> error s "flush completion regresses from v%d" f
      | Some _ | None -> Ok { t with flushed = Oid_map.add oid v t.flushed }))
  | Superblock_advance (oid, v) -> (
    match Oid_map.find_opt oid t.flushed with
    | None -> error s "superblock advance without a completed flush"
    | Some f when v > f -> error s "superblock advance ahead of flushed v%d" f
    | Some _ -> (
      match Oid_map.find_opt oid t.stable_floor with
      | Some fl when v < fl -> error s "superblock regresses from v%d" fl
      | Some _ | None ->
        Ok { t with stable_floor = Oid_map.add oid v t.stable_floor }))
  | Crash -> Ok (crash t)

(* The [persistent ⊆ ephemeral]-style invariant (cf. verified-betrfs
   DiskLog's SupersedesDisk): what the superblock claims never exceeds
   what has been flushed, and what has been flushed never exceeds what
   was acked — the persistent image is always a prefix (version-wise)
   of the ephemeral contract. *)
let check t =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let bad =
    Oid_map.fold
      (fun oid fl acc ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
          match Oid_map.find_opt oid t.flushed with
          | Some f when fl <= f -> acc
          | Some f ->
            err "invariant: superblock v%d of %a ahead of flushed v%d" fl
              Ids.Oid.pp oid f
          | None ->
            err "invariant: superblock v%d of %a without a flush" fl Ids.Oid.pp
              oid))
      t.stable_floor (Ok ())
  in
  match bad with
  | Error _ -> bad
  | Ok () ->
    Oid_map.fold
      (fun oid f acc ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
          match Oid_map.find_opt oid t.acked with
          | Some a when f <= a -> acc
          | Some a ->
            err "invariant: flushed v%d of %a ahead of acked v%d" f Ids.Oid.pp
              oid a
          | None ->
            err "invariant: flushed v%d of %a never acked" f Ids.Oid.pp oid))
      t.flushed (Ok ())

let persistent t = Oid_map.bindings t.acked

(* Whether a recovered image may legitimately hold [version] of [oid].
   The acked version itself always may (and must).  A *newer* version
   may only appear if some transaction that wrote it reached its log
   extension: its COMMIT record can be durable — e.g. inside a torn
   prefix — even though the ack never fired.  Anything else (a stale
   version, or a write of a killed/aborted/running transaction) must
   not survive. *)
let may_survive t oid version =
  (match Oid_map.find_opt oid t.acked with
  | Some a -> version = a
  | None -> false)
  || Tid_map.exists
       (fun _ tx ->
         (match tx.phase with
         | Log_extended | Acked -> true
         | Running | Aborted | Killed -> false)
         &&
         match Oid_map.find_opt oid tx.writes with
         | Some v -> v = version
         | None -> false)
       t.txs

let equal_tx a b = a.phase = b.phase && Oid_map.equal ( = ) a.writes b.writes

let equal a b =
  Tid_map.equal equal_tx a.txs b.txs
  && Oid_map.equal ( = ) a.acked b.acked
  && Oid_map.equal ( = ) a.flushed b.flushed
  && Oid_map.equal ( = ) a.stable_floor b.stable_floor

let num_txs t = Tid_map.cardinal t.txs
