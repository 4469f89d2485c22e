(** The one module that knows the JSON format. Every artifact writer
    (traces, heartbeats, flight bundles, profiles, diff reports, the
    bench's figure payloads) escapes through {!escape}, tags host-time
    values with {!unstable}, and writes through {!write_file}; every
    reader parses with {!parse} after {!read_file}.

    Integers and floats are distinct constructors so trace args map back
    to the right {!Trace.arg}; [\u00XX] escapes decode to single bytes,
    the inverse of {!escape}, so string round trips are byte-exact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Writing} *)

val escape : Buffer.t -> string -> unit
(** Append a JSON string literal, quotes included. Bytes outside
    printable ASCII become [\u00XX] (the byte value), so the output is
    pure-ASCII valid JSON for any input bytes. *)

val quote : string -> string
(** {!escape} into a fresh string. *)

val add_sep : Buffer.t -> ('a -> unit) -> 'a list -> unit
(** [add_sep buf f xs] calls [f] on each element, appending [','] to
    [buf] between consecutive calls: the writer of comma-separated
    members and elements. *)

val unstable : float -> string
(** [{"unstable":true,"value":%.6f}]: a host-time value (wall clock, GC
    noise) tagged so {!strip_unstable} and {!strip_unstable_text} can
    drop it before a byte comparison. *)

(** {1 Parsing} *)

val parse : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val to_int : t -> int option
(** [Int], or an integral [Float] inside the [int] range. *)

val to_float : t -> float option
val to_string : t -> string option

(** {1 Unstable-tagged values} *)

val unstable_value : t -> float option
(** The number inside an {!unstable} object, or the value itself when
    it is a plain number. *)

val strip_unstable : t -> t
(** Remove, at every depth, each object member whose value is an object
    carrying ["unstable": true]. *)

val strip_unstable_text : string -> string
(** {!strip_unstable} on serialized text, for tests and tools that
    compare bytes: removes every [,"<key>":{"unstable":true,...}] member
    (or a leading one with its trailing comma). Strings that merely
    contain the marker text are left alone. *)

(** {1 Files} *)

val read_file : string -> (string, string) result
(** The whole file. [Error] (never an exception) on a missing file, a
    directory or a read failure; the channel is closed on every path. *)

val write_file : string -> string -> (unit, string) result
(** [write_file path contents] creates or truncates [path]. [Error] on
    any failure; the channel is closed on every path. *)
