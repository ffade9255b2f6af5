open El_model

type subsystem = Manager | Channel | Disk | Recovery | Harness

let subsystem_name = function
  | Manager -> "manager"
  | Channel -> "channel"
  | Disk -> "disk"
  | Recovery -> "recovery"
  | Harness -> "harness"

let all_subsystems = [ Manager; Channel; Disk; Recovery; Harness ]

let subsystem_index = function
  | Manager -> 0
  | Channel -> 1
  | Disk -> 2
  | Recovery -> 3
  | Harness -> 4

type kind =
  | Append of { gen : int; slot : int; tid : int; size : int }
  | Seal of { gen : int; slot : int }
  | Head_advance of { gen : int; slot : int; survivors : int }
  | Forward of { from_gen : int; to_gen : int; records : int }
  | Recirculate of { gen : int; records : int }
  | Stage_write of { gen : int; records : int }
  | Regenerate of { queue : int; records : int }
  | Kill of { tid : int }
  | Evict of { target : int; committed_tx : bool }
  | Commit_ack of { tid : int; latency : Time.t }
  | Abort of { tid : int }
  | Checkpoint of { blocks : int }
  | Log_write_start of { gen : int }
  | Log_write_done of { gen : int }
  | Flush_request of { oid : int; forced : bool }
  | Flush_start of { drive : int; oid : int }
  | Flush_done of { drive : int; oid : int; distance : int }
  | Io_retry of { device : string; attempts : int }
  | Io_remap of { device : string }
  | Shed of { tid : int; backlog : int }
  | Contention of { tid : int; oid : int; attempt : int }
  | Retry of { tid : int; attempt : int }
  | Mark of string

type t = { at : Time.t; sub : subsystem; kind : kind }

let name = function
  | Append _ -> "append"
  | Seal _ -> "seal"
  | Head_advance _ -> "head-advance"
  | Forward _ -> "forward"
  | Recirculate _ -> "recirculate"
  | Stage_write _ -> "stage-write"
  | Regenerate _ -> "regenerate"
  | Kill _ -> "kill"
  | Evict _ -> "evict"
  | Commit_ack _ -> "commit-ack"
  | Abort _ -> "abort"
  | Checkpoint _ -> "checkpoint"
  | Log_write_start _ -> "log-write-start"
  | Log_write_done _ -> "log-write-done"
  | Flush_request _ -> "flush-request"
  | Flush_start _ -> "flush-start"
  | Flush_done _ -> "flush-done"
  | Io_retry _ -> "io-retry"
  | Io_remap _ -> "io-remap"
  | Shed _ -> "shed"
  | Contention _ -> "contention"
  | Retry _ -> "retry"
  | Mark _ -> "mark"

let args kind : (string * Jsonx.t) list =
  match kind with
  | Append { gen; slot; tid; size } ->
    [ ("gen", Jsonx.Int gen); ("slot", Int slot); ("tid", Int tid);
      ("size", Int size) ]
  | Seal { gen; slot } -> [ ("gen", Int gen); ("slot", Int slot) ]
  | Head_advance { gen; slot; survivors } ->
    [ ("gen", Int gen); ("slot", Int slot); ("survivors", Int survivors) ]
  | Forward { from_gen; to_gen; records } ->
    [ ("from", Int from_gen); ("to", Int to_gen); ("records", Int records) ]
  | Recirculate { gen; records } ->
    [ ("gen", Int gen); ("records", Int records) ]
  | Stage_write { gen; records } ->
    [ ("gen", Int gen); ("records", Int records) ]
  | Regenerate { queue; records } ->
    [ ("queue", Int queue); ("records", Int records) ]
  | Kill { tid } -> [ ("tid", Int tid) ]
  | Evict { target; committed_tx } ->
    [ ((if committed_tx then "tid" else "oid"), Int target);
      ("committed_tx", Bool committed_tx) ]
  | Commit_ack { tid; latency } ->
    [ ("tid", Int tid); ("latency_us", Int (Time.to_us latency)) ]
  | Abort { tid } -> [ ("tid", Int tid) ]
  | Checkpoint { blocks } -> [ ("blocks", Int blocks) ]
  | Log_write_start { gen } | Log_write_done { gen } -> [ ("gen", Int gen) ]
  | Flush_request { oid; forced } ->
    [ ("oid", Int oid); ("forced", Bool forced) ]
  | Flush_start { drive; oid } -> [ ("drive", Int drive); ("oid", Int oid) ]
  | Flush_done { drive; oid; distance } ->
    [ ("drive", Int drive); ("oid", Int oid); ("distance", Int distance) ]
  | Io_retry { device; attempts } ->
    [ ("device", String device); ("attempts", Int attempts) ]
  | Io_remap { device } -> [ ("device", String device) ]
  | Shed { tid; backlog } -> [ ("tid", Int tid); ("backlog", Int backlog) ]
  | Contention { tid; oid; attempt } ->
    [ ("tid", Int tid); ("oid", Int oid); ("attempt", Int attempt) ]
  | Retry { tid; attempt } -> [ ("tid", Int tid); ("attempt", Int attempt) ]
  | Mark label -> [ ("label", String label) ]

let pp ppf { at; sub; kind } =
  Format.fprintf ppf "[%a %s] %s" Time.pp at (subsystem_name sub) (name kind)
