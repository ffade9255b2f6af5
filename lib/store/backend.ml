type op =
  | Pwrite of int
  | Pread of int
  | Barrier

type counters = {
  mutable pwrites : int;
  mutable preads : int;
  mutable barriers : int;
  mutable bytes_written : int;
  mutable seeks : int;
}

type mem_state = { mutable buf : Bytes.t; mutable len : int; mutable freed : bool }

type file_state = {
  fd : Unix.file_descr;
  fpath : string;
  mutable closed : bool;
  mutable at : int;
      (* where the descriptor's offset stands, or -1 when unknown (an
         I/O call raised part way) *)
}

type impl =
  | Mem of mem_state
  | File of file_state

type write_fault = {
  mutable wf_countdown : int;  (* full pwrites left before the tear *)
  wf_keep : int;  (* bytes of the torn pwrite that reach the platter *)
  wf_hook : unit -> unit;  (* fires once, at the tear *)
}

type t = {
  impl : impl;
  counters : counters;
  mutable tap : (op -> unit) option;
  mutable fault : write_fault option;
  mutable dead : bool;
}

let fresh_counters () =
  { pwrites = 0; preads = 0; barriers = 0; bytes_written = 0; seeks = 0 }

let mem () =
  {
    impl = Mem { buf = Bytes.create 4096; len = 0; freed = false };
    counters = fresh_counters ();
    tap = None;
    fault = None;
    dead = false;
  }

let file ~path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  {
    impl = File { fd; fpath = path; closed = false; at = 0 };
    counters = fresh_counters ();
    tap = None;
    fault = None;
    dead = false;
  }

let set_write_fault ?(on_tear = fun () -> ()) t ~after_pwrites ~keep_bytes =
  if after_pwrites < 0 then
    invalid_arg "El_store.Backend.set_write_fault: negative countdown";
  if keep_bytes < 0 then
    invalid_arg "El_store.Backend.set_write_fault: negative keep";
  t.fault <-
    Some { wf_countdown = after_pwrites; wf_keep = keep_bytes; wf_hook = on_tear }

let dead t = t.dead
let revive t = t.dead <- false

let name t = match t.impl with Mem _ -> "mem" | File _ -> "file"
let path t = match t.impl with Mem _ -> None | File f -> Some f.fpath

let counters t = t.counters
let set_tap t tap = t.tap <- tap

(* Each counts its op, and builds it for the tap only when one is
   installed. *)
let record_pwrite t n =
  t.counters.pwrites <- t.counters.pwrites + 1;
  t.counters.bytes_written <- t.counters.bytes_written + n;
  match t.tap with Some f -> f (Pwrite n) | None -> ()

let record_pread t n =
  t.counters.preads <- t.counters.preads + 1;
  match t.tap with Some f -> f (Pread n) | None -> ()

let record_barrier t =
  t.counters.barriers <- t.counters.barriers + 1;
  match t.tap with Some f -> f Barrier | None -> ()

let check_open t =
  match t.impl with
  | Mem m -> if m.freed then invalid_arg "El_store.Backend: use after close"
  | File f -> if f.closed then invalid_arg "El_store.Backend: use after close"

let mem_ensure m capacity =
  if Bytes.length m.buf < capacity then begin
    let cap = ref (max 4096 (Bytes.length m.buf)) in
    while !cap < capacity do
      cap := !cap * 2
    done;
    let buf = Bytes.create !cap in
    Bytes.blit m.buf 0 buf 0 m.len;
    m.buf <- buf
  end

(* OCaml's Unix module has no pread/pwrite, so a positional op seeks
   first, unless the descriptor already stands at its offset: every
   append after the one before it, and every read of a sequential scan.
   A backend is only ever driven from one thread. *)
let seek_to t f off =
  if f.at <> off then begin
    f.at <- -1;
    ignore (Unix.lseek f.fd off Unix.SEEK_SET);
    t.counters.seeks <- t.counters.seeks + 1;
    f.at <- off
  end

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

let rec read_all fd b pos len =
  if len = 0 then pos
  else
    let n = Unix.read fd b pos len in
    if n = 0 then pos else read_all fd b (pos + n) (len - n)

let write_bytes t ~off ~len b =
  match t.impl with
  | Mem m ->
    mem_ensure m (off + len);
    (* Zero-fill any gap between the current end and [off] so Mem and
       File (which reads back sparse holes as zeros) stay byte-equal. *)
    if off > m.len then Bytes.fill m.buf m.len (off - m.len) '\000';
    Bytes.blit b 0 m.buf off len;
    if off + len > m.len then m.len <- off + len
  | File f ->
    seek_to t f off;
    f.at <- -1;
    write_all f.fd b 0 len;
    f.at <- off + len

let pwrite t ~off ~len b =
  check_open t;
  if off < 0 then invalid_arg "El_store.Backend.pwrite: negative offset";
  if len < 0 || len > Bytes.length b then
    invalid_arg "El_store.Backend.pwrite: slice out of bounds";
  if t.dead then ()
  else
    match t.fault with
    | Some wf when wf.wf_countdown = 0 ->
      (* The tear: a prefix of this pwrite reaches the platter and the
         device is gone — every later op is silently lost, exactly a
         power cut in the middle of the write.  The valid prefix can
         end anywhere, including inside a segment header or entry. *)
      let kept = min wf.wf_keep len in
      if kept > 0 then write_bytes t ~off ~len:kept b;
      t.fault <- None;
      t.dead <- true;
      if kept > 0 then record_pwrite t kept;
      wf.wf_hook ()
    | fault ->
      (match fault with
      | Some wf -> wf.wf_countdown <- wf.wf_countdown - 1
      | None -> ());
      write_bytes t ~off ~len b;
      record_pwrite t len

let pread t ~off b ~pos ~len =
  check_open t;
  if off < 0 || pos < 0 || len < 0 || len > Bytes.length b - pos then
    invalid_arg "El_store.Backend.pread";
  let got =
    match t.impl with
    | Mem m ->
      let n = max 0 (min len (m.len - off)) in
      if n > 0 then Bytes.blit m.buf off b pos n;
      n
    | File f ->
      seek_to t f off;
      f.at <- -1;
      let n = read_all f.fd b pos len - pos in
      f.at <- off + n;
      n
  in
  record_pread t got;
  got

let barrier t =
  check_open t;
  if t.dead then ()
  else begin
    (match t.impl with Mem _ -> () | File f -> Unix.fsync f.fd);
    record_barrier t
  end

let size t =
  check_open t;
  match t.impl with
  | Mem m -> m.len
  | File f -> (Unix.fstat f.fd).Unix.st_size

let truncate t ~len =
  check_open t;
  if len < 0 then invalid_arg "El_store.Backend.truncate";
  if t.dead then ()
  else
  match t.impl with
  | Mem m -> if len < m.len then m.len <- len
  | File f ->
    if len < (Unix.fstat f.fd).Unix.st_size then Unix.ftruncate f.fd len;
    seek_to t f len

let close t =
  match t.impl with
  | Mem m ->
    m.freed <- true;
    m.buf <- Bytes.create 0;
    m.len <- 0
  | File f ->
    if not f.closed then begin
      f.closed <- true;
      Unix.close f.fd
    end
