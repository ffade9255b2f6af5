(** The serve line protocol, read and written in place.

    {!parse} reads one command line where it lies in a buffer and
    copies no byte: it splits the line as [String.trim] and then
    [String.split_on_char ' '] with the empty words dropped would, and
    records where each word starts and ends in a reusable {!line}.
    The verb matches case-insensitively.  An argument of at most 18
    plain digits is read digit by digit; any other word (a sign, a
    [0x]/[0o]/[0b]/[0u] prefix, an underscore, 19 digits or more) goes
    to [int_of_string_opt], so it reads exactly as that function reads
    it, and only such a word allocates.

    A reply is written with {!put} and {!put_int} straight into a
    session's out channel, or into a buffer for {!Serve.exec}; a
    non-negative number is written digit by digit, with no string in
    between. *)

(** The command a line names, with the right number of arguments;
    [Malformed] for any other non-blank line. *)
type command =
  | Blank
  | Begin  (** [BEGIN tid] *)
  | Write  (** [WRITE tid oid version [size]] *)
  | Commit  (** [COMMIT tid] *)
  | Abort  (** [ABORT tid] *)
  | Read  (** [READ oid] *)
  | Recovered
  | Stat
  | Quit
  | Malformed

type line
(** A parser's record of the words of the last line it read. *)

val line : unit -> line

val parse : line -> Bytes.t -> start:int -> stop:int -> command
(** Reads the line [[start, stop)] of the buffer.  The buffer must
    stay unchanged while {!arg} and {!word} read the line's words. *)

val arity : line -> int
(** The number of arguments after the verb. *)

val arg : line -> int -> int
(** The [i]th argument (from 1) as a non-negative int, or [-1] when it
    is not one: the old grammar's [Some n when n >= 0]. *)

val word : line -> int -> string
(** The [i]th word (0 is the verb) as a fresh string, for an error
    reply. *)

(** Where a reply goes. *)
type out = Chan of out_channel | Buf of Buffer.t

val put : out -> string -> unit
val put_int : out -> int -> unit
