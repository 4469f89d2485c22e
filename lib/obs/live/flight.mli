(** The black-box flight recorder: on a stall or an auditor violation,
    dump a bounded, self-describing bundle of run state to a directory
    so the failure can be diagnosed offline — including by
    [poe_sim analyze], which consumes the bundle's [trace.jsonl]
    directly.

    A bundle directory contains:
    - [manifest.json] — reason, simulated time, seed/config summary,
      and the file list; host wall-clock tagged [{"unstable":true}]
    - [trace.jsonl] — the last {!trace_window} trace events (empty file
      when tracing was off)
    - [heartbeats.jsonl] — the heartbeat tail
    - [profile.json] — a {!Poe_prof.Prof} snapshot
    - [state.txt] — free-form per-replica state summary from the caller

    Everything except the manifest's wall-clock field derives from
    simulated state, so two bundles from the same seed are
    byte-identical after {!Poe_obs.Json.strip_unstable_text}. *)

val trace_window : int
(** Max trace events retained in a bundle (the {e last} N). *)

val dump :
  dir:string ->
  reason:string ->
  at:float ->
  ?wall:float ->
  ?meta:(string * string) list ->
  events:Poe_obs.Trace.event list ->
  heartbeats:string ->
  state:string ->
  unit ->
  string list
(** Write a bundle into [dir] (created, with parents, if missing;
    existing files are overwritten — callers pass a per-run
    subdirectory). [meta] adds extra string fields to the manifest
    (seed, protocol, ...). [wall] defaults to [Unix.gettimeofday ()].
    Returns the relative names of the files written. Raises [Sys_error]
    when a file cannot be written. *)
