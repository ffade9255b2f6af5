(** [el-sim serve]: a durable-log service over a real disk image.

    The server builds the harness plant
    ({!El_harness.Experiment.build_instance}: manager, flush array and
    stable database — EL by default, or the §6 hybrid) on a
    {!El_store.Backend.file} image and accepts transactions over a
    line protocol — from stdin or a Unix-domain socket.  Each command
    steps the simulation engine until every consequence has settled,
    so a response is only written after the store has absorbed (and
    fsynced) everything the command caused.  In particular
    [ok committed <tid>] is an ack {e at the durability point}: the
    COMMIT record is on the platter before the line is on the wire,
    which is what the crash-kill tests exploit — a SIGKILLed server
    must recover every transaction it acked from [disk.img] alone.

    {2 Protocol}

    One command per line, case-insensitive verbs, integer arguments:

    - [BEGIN <tid>] → [ok begun <tid>], or [err] unless [tid] is
      above every tid begun in this session and every tid the image's
      surviving records carry: recovery pairs records by tid, so a
      reused tid would recover an earlier transaction's COMMIT as the
      new one's (or the new COMMIT as an aborted one's)
    - [WRITE <tid> <oid> <version> [<size>]] →
      [ok written <tid> <oid> <version>]  (size defaults to 100 bytes)
    - [COMMIT <tid>] → [ok committed <tid>], or [err killed <tid>] if
      the manager killed the transaction for log space
    - [ABORT <tid>] → [ok aborted <tid>]
    - [READ <oid>] → [ok read <oid> <version>] — the durable version
      of the object as recovered at startup (0 if never written).
      A commit flushed to the stable database and recirculated out of
      the log is absent from [RECOVERED]'s tid list but present here —
      this is the right probe for "was my acked write kept?"
    - [RECOVERED] → [recovered <n> <tid>...] — the committed
      transactions still in the log at startup, ascending (a flushed
      commit's effects live on in the stable state; see [READ])
    - [STAT] → [stat backend=<name> pwrites=<n> barriers=<n>
      bytes=<n> recovered=<n> commits=<n> fsyncs_per_commit=<f>
      group_fsync=<on|off>]
    - [QUIT] → [bye], then the connection (or the stdio server)
      closes

    Anything else answers [err <reason>]; a malformed argument or a
    protocol misuse (e.g. beginning a tid twice) answers [err] without
    disturbing the server.  A line longer than 65536 bytes is the one
    error that ends the session (see {!serve_channel}). *)

type config = {
  image : string;  (** path to the disk image *)
  fresh : bool;
      (** [true] truncates the image; [false] (default) attaches to
          whatever committed state it holds and recovers it *)
  kind : El_harness.Experiment.manager_kind;
      (** [Ephemeral] or [Hybrid]; {!start} refuses [Firewall] *)
  num_objects : int;
  group_fsync : bool;
      (** [true] runs the store in {!El_store.Log_store.Manual} mode:
          segments appended since the last COMMIT are staged in memory
          and the COMMIT writes them with one pwrite and one fsync
          before its ack.  The ack-durability contract is unchanged —
          only unacked work can be lost to a crash.  [false] (default)
          pwrites and fsyncs every appended segment. *)
}

val default_config : image:string -> config
(** EL with two 32-block generations, 100_000 objects, attach,
    per-segment fsync. *)

type t

val start : config -> t
(** Opens (or creates) the image, recovers its committed state, and
    builds a fresh plant on it on a new store epoch — prior epochs'
    blocks stay durable and are never shadowed by the new run.  The
    image is read once: {!El_store.Log_store.attach_scan}'s scan, cut
    at any torn tail, is what recovery replays.  A start costs one
    checksum pass over the image plus decoding what survives it:
    superseded segments are verified but never decoded.  Raises
    [Invalid_argument] for a [Firewall] kind before it touches the
    image: the FW baseline reclaims its ring without flushing to a
    stable database, so a restart would lose acked writes.  Raises
    [Unix.Unix_error] if the image path is unusable. *)

val recovered : t -> El_recovery.Recovery.result
(** The committed state found in the image when {!start} attached. *)

val exec : t -> string -> string option * bool
(** One protocol step: parse a command line, run it to quiescence,
    return the response ([None] for a blank line) and whether the
    session should continue ([false] after [QUIT]).  Exposed for
    in-process tests; the servers below are thin loops over it. *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serves one session until EOF or [QUIT], a batch at a time: each
    read takes whatever the client has sent so far, every complete
    line in it runs in order, and their responses go out together in
    one flush before the next read.  A client that sends one line gets
    its response at once; one that pipelines gets one reply write per
    batch.  A COMMIT's response is queued only after its fsync, so the
    ack promise is unchanged.  A line split across reads runs once,
    when its newline arrives; a last line without a newline runs at
    EOF; [QUIT] answers [bye] and nothing after it in the batch runs.
    A line may be at most 65536 bytes, its newline included: a longer
    one answers [err line longer than 65536 bytes] and ends the
    session without running. *)

val serve_socket : t -> socket_path:string -> unit
(** Binds a Unix-domain socket (unlinking any stale file first) and
    serves clients sequentially, forever — the caller terminates the
    process.  Each accepted connection is one {!serve_channel}
    session, batched the same way; [QUIT] or an over-long line ends
    the connection, not the server. *)

val close : t -> unit
(** Syncs the store and closes the image's file descriptor.  Every
    acked write is already durable; the sync writes out the segments
    that [group_fsync] staged after the last COMMIT, so a clean
    shutdown leaves the whole image, as a per-segment-fsync server
    does. *)
