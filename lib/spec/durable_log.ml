open El_model
module Oid_map = Map.Make (Ids.Oid)
module Oid_set = Set.Make (Ids.Oid)
module Tid_map = Map.Make (Ids.Tid)

type tx_phase = Running | Log_extended | Acked | Aborted | Killed

type tx = { phase : tx_phase; writes : int Oid_map.t }

(* One object's durable promises: the newest version an acked
   transaction wrote, the last completed flush and the superblock
   floor.  An object enters the map at its first ack, and a flush needs
   an ack, so [acked] is always there. *)
type obj = { acked : int; flushed : int option; floor : int option }

(* [unsettled] holds the acked objects whose floor is below the acked
   version (or absent): the objects a crash could still lose. *)
type t = { txs : tx Tid_map.t; objs : obj Oid_map.t; unsettled : Oid_set.t }

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
  { txs = Tid_map.empty; objs = Oid_map.empty; unsettled = Oid_set.empty }

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

let acked_version t oid =
  match Oid_map.find_opt oid t.objs with Some o -> Some o.acked | None -> None

let flushed_version t oid =
  match Oid_map.find_opt oid t.objs with Some o -> o.flushed | None -> None

let floor_version t oid =
  match Oid_map.find_opt oid t.objs with Some o -> o.floor | None -> None

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
      let objs, unsettled =
        Oid_map.fold
          (fun oid v ((objs, unsettled) as acc) ->
            match Oid_map.find_opt oid objs with
            | Some o when o.acked >= v -> acc
            | Some o ->
              ( Oid_map.add oid { o with acked = v } objs,
                Oid_set.add oid unsettled )
            | None ->
              ( Oid_map.add oid
                  { acked = v; flushed = None; floor = None }
                  objs,
                Oid_set.add oid unsettled ))
          writes (t.objs, t.unsettled)
      in
      Ok
        {
          txs = Tid_map.add tid { tx with phase = Acked } t.txs;
          objs;
          unsettled;
        }
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
    match Oid_map.find_opt oid t.objs with
    | None -> error s "flush completion for a never-acked object"
    | Some o when v > o.acked ->
      error s "flush completion ahead of acked v%d" o.acked
    | Some o -> (
      match o.flushed with
      | Some f when v < f -> error s "flush completion regresses from v%d" f
      | Some _ | None ->
        let o = { o with flushed = Some v } in
        Ok { t with objs = Oid_map.add oid o t.objs }))
  | Superblock_advance (oid, v) -> (
    match Oid_map.find_opt oid t.objs with
    | None | Some { flushed = None; _ } ->
      error s "superblock advance without a completed flush"
    | Some { flushed = Some f; _ } when v > f ->
      error s "superblock advance ahead of flushed v%d" f
    | Some o -> (
      match o.floor with
      | Some fl when v < fl -> error s "superblock regresses from v%d" fl
      | Some _ | None ->
        let o = { o with floor = Some v } in
        let unsettled =
          if v = o.acked then Oid_set.remove oid t.unsettled else t.unsettled
        in
        Ok { t with objs = Oid_map.add oid o t.objs; unsettled }))
  | Crash -> Ok (crash t)

(* The [persistent ⊆ ephemeral]-style invariant (cf. verified-betrfs
   DiskLog's SupersedesDisk), one object's record at a time: what the
   superblock claims never exceeds what has been flushed, and what has
   been flushed never exceeds what was acked — the persistent image is
   always a prefix (version-wise) of the ephemeral contract. *)
let floor_error oid o =
  match (o.floor, o.flushed) with
  | Some fl, Some f when fl > f ->
    Some
      (Format.asprintf "invariant: superblock v%d of %a ahead of flushed v%d"
         fl Ids.Oid.pp oid f)
  | Some fl, None ->
    Some
      (Format.asprintf "invariant: superblock v%d of %a without a flush" fl
         Ids.Oid.pp oid)
  | Some _, Some _ | None, _ -> None

let flushed_error oid o =
  match o.flushed with
  | Some f when f > o.acked ->
    Some
      (Format.asprintf "invariant: flushed v%d of %a ahead of acked v%d" f
         Ids.Oid.pp oid o.acked)
  | Some _ | None -> None

(* Superblock violations are reported before flush ones, each at the
   lowest failing oid, whatever the order of [oids]. *)
let check_objects t oids =
  let lowest error =
    List.fold_left
      (fun low oid ->
        match low with
        | Some (l, _) when Ids.Oid.compare l oid <= 0 -> low
        | Some _ | None -> (
          match Oid_map.find_opt oid t.objs with
          | None -> low
          | Some o -> (
            match error oid o with Some m -> Some (oid, m) | None -> low)))
      None oids
  in
  match lowest floor_error with
  | Some (_, m) -> Error m
  | None -> (
    match lowest flushed_error with Some (_, m) -> Error m | None -> Ok ())

let check t = check_objects t (Oid_map.fold (fun oid _ l -> oid :: l) t.objs [])

let persistent t =
  List.rev (Oid_map.fold (fun oid o l -> (oid, o.acked) :: l) t.objs [])

let unsettled t = t.unsettled

(* A log-extended transaction's COMMIT record is in the log but its ack
   has not fired: a crash commits it exactly when that record persisted
   (e.g. inside a torn prefix).  An acked one wrote nothing above the
   acked versions; a running, aborted or killed one must not survive. *)
let log_extended t tid =
  match Tid_map.find_opt tid t.txs with
  | Some { phase = Log_extended; _ } -> true
  | Some _ | None -> false

let equal_tx a b = a.phase = b.phase && Oid_map.equal ( = ) a.writes b.writes

let equal a b =
  Tid_map.equal equal_tx a.txs b.txs && Oid_map.equal ( = ) a.objs b.objs

let num_txs t = Tid_map.cardinal t.txs
