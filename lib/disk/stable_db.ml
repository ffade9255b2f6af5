open El_model

type t = { num_objects : int; versions : int Ids.Oid.Table.t }

let create ~num_objects =
  if num_objects <= 0 then invalid_arg "Stable_db.create: no objects";
  { num_objects; versions = Ids.Oid.Table.create 1024 }

let apply t oid ~version =
  if Ids.Oid.to_int oid >= t.num_objects then
    invalid_arg "Stable_db.apply: oid out of range";
  match Ids.Oid.Table.find_opt t.versions oid with
  | Some v when v >= version -> ()
  | Some _ | None -> Ids.Oid.Table.replace t.versions oid version

let of_pairs ~num_objects pairs =
  let t = create ~num_objects in
  List.iter (fun (oid, version) -> apply t oid ~version) pairs;
  t

let version t oid = Ids.Oid.Table.find_opt t.versions oid
let objects_written t = Ids.Oid.Table.length t.versions

let iter t f = Ids.Oid.Table.iter f t.versions

let snapshot t =
  Ids.Oid.Table.fold (fun oid v acc -> (oid, v) :: acc) t.versions []

let copy t =
  { num_objects = t.num_objects; versions = Ids.Oid.Table.copy t.versions }

let equal a b =
  Ids.Oid.Table.length a.versions = Ids.Oid.Table.length b.versions
  && Ids.Oid.Table.fold
       (fun oid v acc ->
         acc && match Ids.Oid.Table.find_opt b.versions oid with
           | Some w -> v = w
           | None -> false)
       a.versions true
