(** Exporters: the three file formats the [el-sim trace] subcommand
    writes from one {!Obs.t}. *)

val chrome_trace : Obs.t -> string
(** Chrome [trace_event] JSON, loadable in Perfetto / chrome://tracing.
    Metadata records name the process ["el-sim"] and one "thread" per
    {!Event.subsystem}; ring events become instant events (["ph":"i"])
    and sampler rows become counter tracks (["ph":"C"]).  Timed events
    are emitted in nondecreasing [ts] order. *)

val timeseries_csv : Obs.t -> string
(** Header [time_s,<probe columns>], one row per sample. *)

val summary : ?extra:(string * Jsonx.t) list -> Obs.t -> Jsonx.t
val summary_json : ?extra:(string * Jsonx.t) list -> Obs.t -> string
(** Machine-readable run summary: trace volume, event counts by kind,
    every registered metric, and per-column series statistics.
    [extra] fields are appended at the top level. *)
