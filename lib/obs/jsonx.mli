(** A minimal JSON document: just enough to write the observability
    exports (and the bench emitter) without an external dependency.

    Printing is deterministic: object fields appear in the order
    given, floats use a fixed format, and non-finite floats become
    [null] (JSON has no NaN/Infinity literals). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
