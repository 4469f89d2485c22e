(** The deterministic heartbeat sampler: a periodic, simulated-time
    snapshot of run health, serialized as byte-stable JSONL.

    Every sample captures the per-replica commit/exec watermarks and
    view, the engine's event-queue depth, the client hubs' in-flight and
    completed request counts, the age of the oldest unanswered request,
    and how far each {!Poe_prof.Prof} [Sum] counter of the sampling
    domain moved since the previous sample. Everything in a sample
    derives from simulated time and simulated activity, so for a fixed
    seed the JSONL stream is byte-identical run-to-run and across
    {!Poe_parallel.Pool} job counts.

    The single host-time field — the wall clock at which the sample was
    recorded — is tagged with {!Poe_obs.Json.unstable} exactly like the
    host fields of [BENCH_wallclock.json], and
    {!Poe_obs.Json.strip_unstable_text} removes it so streams can be
    compared byte-for-byte.

    This module is harness-agnostic: it only formats and retains
    samples. {!Poe_harness.Cluster.Make.attach_heartbeat} does the
    probing and drives {!record} off the simulation clock. *)

type replica_sample = {
  r_id : int;
  r_view : int;  (** the replica's current view *)
  r_exec : int;  (** executed batches (speculative included) — the exec
                     watermark *)
  r_commit : int;
      (** highest stable checkpoint seqno ([-1] initially) — the commit
          watermark; certified, never rolled back *)
  r_alive : bool;
}

type sample = {
  hb_seq : int;  (** 0-based heartbeat index within this stream *)
  hb_ts : float;  (** simulated seconds *)
  hb_replicas : replica_sample list;  (** in replica-id order *)
  hb_queue : int;  (** engine event-queue depth *)
  hb_inflight : int;  (** outstanding client requests across all hubs *)
  hb_completed : int;  (** completed client requests across all hubs *)
  hb_oldest_age : float;
      (** age of the oldest outstanding request, seconds; 0 when idle *)
  hb_deltas : (string * int) list;
      (** {!Poe_prof.Prof.sum_deltas} since the previous sample: the
          [Sum] counters that moved, in [counter_defs] order *)
}

type t

val create : ?tail:int -> interval:float -> unit -> t
(** A heartbeat stream sampling every [interval] simulated seconds
    (must be positive). The last [tail] samples (default 128) are
    retained as records for the flight recorder; the JSONL rendering of
    {e every} sample is retained regardless (heartbeats are rare —
    tens per simulated second at most). *)

val interval : t -> float

val record : ?wall:float -> t -> sample -> unit
(** Serialize and retain one sample. [wall] (default
    [Unix.gettimeofday ()]) only feeds the unstable-tagged field. *)

val count : t -> int
(** Samples recorded so far — the next sample's [hb_seq]. *)

val last : t -> sample option

val to_jsonl : t -> string
(** Every recorded line, in order. *)

val tail_jsonl : t -> string
(** The lines of the retained tail only (flight-recorder bound). *)

val line_of_sample : ?wall:float -> sample -> string
(** One JSONL line (newline included). String fields go through
    {!Poe_obs.Json.escape}; floats use the trace exporters' fixed
    precision. With [wall] absent the line has no unstable field at all. *)
