(** Read exported JSONL traces back into {!Poe_obs.Trace.event}s. *)

val events_of_jsonl : string -> (Poe_obs.Trace.event list, string) result
(** Parse a JSONL export (one event object per line). Unparseable lines
    are skipped; the result is an error only when nothing parses. *)

val load_file : string -> (Poe_obs.Trace.event list, string) result
(** {!events_of_jsonl} over {!Poe_obs.Json.read_file}: a missing file or
    a directory is an [Error], never an exception. Every error message
    starts with the path. *)

(** Typed arg accessors used throughout the analysis passes. *)

val int_arg : string -> Poe_obs.Trace.event -> int option
val float_arg : string -> Poe_obs.Trace.event -> float option
val str_arg : string -> Poe_obs.Trace.event -> string option
