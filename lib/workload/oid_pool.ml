open El_model

type t = { num_objects : int; held : unit Ids.Oid.Table.t }

let create ~num_objects =
  if num_objects <= 0 then invalid_arg "Oid_pool.create: no objects";
  { num_objects; held = Ids.Oid.Table.create 512 }

let acquire t rng =
  if Ids.Oid.Table.length t.held >= t.num_objects then None
  else begin
    (* Rejection sampling: the held set is minuscule next to the
       database, so this loop runs once almost always.  A linear
       fallback guarantees termination when the database is nearly
       saturated (tiny stress-test databases). *)
    let attempts = ref 0 in
    let found = ref None in
    while !found = None && !attempts < 64 do
      incr attempts;
      let oid = Ids.Oid.of_int (Random.State.int rng t.num_objects) in
      if not (Ids.Oid.Table.mem t.held oid) then found := Some oid
    done;
    let oid =
      match !found with
      | Some oid -> oid
      | None ->
        let start = Random.State.int rng t.num_objects in
        let rec scan i remaining =
          if remaining = 0 then assert false
          else
            let oid = Ids.Oid.of_int i in
            if not (Ids.Oid.Table.mem t.held oid) then oid
            else scan ((i + 1) mod t.num_objects) (remaining - 1)
        in
        scan start t.num_objects
    in
    Ids.Oid.Table.replace t.held oid ();
    Some oid
  end

let claim t oid =
  if Ids.Oid.to_int oid < 0 || Ids.Oid.to_int oid >= t.num_objects then
    invalid_arg "Oid_pool.claim: oid outside the database";
  if Ids.Oid.Table.mem t.held oid then false
  else begin
    Ids.Oid.Table.replace t.held oid ();
    true
  end

let release t oid =
  if not (Ids.Oid.Table.mem t.held oid) then
    invalid_arg "Oid_pool.release: oid not held";
  Ids.Oid.Table.remove t.held oid

let in_use t = Ids.Oid.Table.length t.held
let num_objects t = t.num_objects
