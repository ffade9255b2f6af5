open El_model

type t = {
  num_objects : int;
  versions : int Ids.Oid.Table.t;  (* this layer's own entries *)
  base : t option;  (* an overlay's base: reads fall through to it *)
  base_installs : int;  (* the base's [installs] when the overlay was made *)
  mutable installs : int;  (* applies that raised a version here *)
  mutable on_install :
    (Ids.Oid.t -> version:int -> previous:int option -> unit) list;
}

let make ~num_objects ~base versions =
  {
    num_objects;
    versions;
    base;
    base_installs = (match base with Some b -> b.installs | None -> 0);
    installs = 0;
    on_install = [];
  }

let create ~num_objects =
  if num_objects <= 0 then invalid_arg "Stable_db.create: no objects";
  make ~num_objects ~base:None (Ids.Oid.Table.create 1024)

(* An overlay reads its base as it stood when the overlay was made; once
   the base has moved on, every read through the overlay would mix two
   instants, so it refuses. *)
let rec check_fresh t =
  match t.base with
  | Some b ->
    if b.installs <> t.base_installs then
      invalid_arg "Stable_db: stale overlay (its base changed since)";
    check_fresh b
  | None -> ()

let rec find t oid =
  match Ids.Oid.Table.find_opt t.versions oid with
  | Some _ as v -> v
  | None -> ( match t.base with Some b -> find b oid | None -> None)

let version t oid =
  check_fresh t;
  find t oid

let overlay base =
  check_fresh base;
  make ~num_objects:base.num_objects ~base:(Some base)
    (Ids.Oid.Table.create 64)

let rec notify oid version previous = function
  | [] -> ()
  | f :: rest ->
    f oid ~version ~previous;
    notify oid version previous rest

let apply t oid ~version =
  if Ids.Oid.to_int oid >= t.num_objects then
    invalid_arg "Stable_db.apply: oid out of range";
  check_fresh t;
  let previous = find t oid in
  match previous with
  | Some v when v >= version -> ()
  | Some _ | None ->
    Ids.Oid.Table.replace t.versions oid version;
    t.installs <- t.installs + 1;
    notify oid version previous t.on_install

let on_install t f = t.on_install <- t.on_install @ [ f ]

let of_table ~num_objects versions =
  if num_objects <= 0 then invalid_arg "Stable_db.of_table: no objects";
  Ids.Oid.Table.iter
    (fun oid _ ->
      if Ids.Oid.to_int oid >= num_objects then
        invalid_arg "Stable_db.of_table: oid out of range")
    versions;
  make ~num_objects ~base:None versions

let base t = t.base

let rec count t =
  match t.base with
  | None -> Ids.Oid.Table.length t.versions
  | Some b ->
    Ids.Oid.Table.fold
      (fun oid _ n -> if find b oid = None then n + 1 else n)
      t.versions (count b)

let objects_written t =
  check_fresh t;
  count t

let iter_overlay t f =
  check_fresh t;
  Ids.Oid.Table.iter f t.versions

let rec visit t f =
  match t.base with
  | None -> Ids.Oid.Table.iter f t.versions
  | Some b ->
    visit b (fun oid v ->
        match Ids.Oid.Table.find_opt t.versions oid with
        | Some w -> f oid w
        | None -> f oid v);
    Ids.Oid.Table.iter
      (fun oid v -> if find b oid = None then f oid v)
      t.versions

let iter t f =
  check_fresh t;
  visit t f

let snapshot t =
  let acc = ref [] in
  iter t (fun oid v -> acc := (oid, v) :: !acc);
  !acc

(* An overlay's own versions are never below its base's (applies are
   monotone), so they simply replace them in a copy of the base. *)
let rec flatten t =
  match t.base with
  | None -> Ids.Oid.Table.copy t.versions
  | Some b ->
    let versions = flatten b in
    Ids.Oid.Table.iter (Ids.Oid.Table.replace versions) t.versions;
    versions

let copy t =
  check_fresh t;
  make ~num_objects:t.num_objects ~base:None (flatten t)

let equal a b =
  objects_written a = objects_written b
  &&
  let same = ref true in
  iter a (fun oid v -> if !same && version b oid <> Some v then same := false);
  !same
