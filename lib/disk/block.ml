type 'a t = {
  capacity : int;
  mutable used : int;
  mutable rev_items : 'a list;
  mutable count : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Block.create: non-positive capacity";
  { capacity; used = 0; rev_items = []; count = 0 }

let capacity t = t.capacity
let used t = t.used
let free t = t.capacity - t.used
let is_empty t = t.count = 0

let fits t ~size =
  if size <= 0 then invalid_arg "Block.fits: non-positive size";
  size <= free t

let add t ~size x =
  if not (fits t ~size) then invalid_arg "Block.add: does not fit";
  t.used <- t.used + size;
  t.rev_items <- x :: t.rev_items;
  t.count <- t.count + 1

let items t = List.rev t.rev_items
let memq x t = List.memq x t.rev_items
let count t = t.count
let iter f t = List.iter f (items t)

let clear t =
  t.used <- 0;
  t.rev_items <- [];
  t.count <- 0
