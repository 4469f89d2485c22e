(** Per-replica compute model: the multi-threaded pipeline of Fig. 6.

    A replica owns a few {e resources}, each with a fixed number of parallel
    lanes mirroring ResilientDB's thread pools: input/output threads
    ([Io]), batch-creation threads ([Batcher]), the single worker thread
    ([Worker]) that drives consensus crypto, and the single execute thread
    ([Execute]). Submitting a job occupies the earliest-free lane of its
    resource for the job's CPU cost and runs its continuation when done —
    an FCFS multi-server queue, which reproduces the queueing delays the
    paper attributes to its pipeline. *)

type resource = Io | Batcher | Worker | Execute

type t

val create :
  engine:Poe_simnet.Engine.t ->
  ?node:int ->
  ?io_lanes:int ->
  ?batcher_lanes:int ->
  ?worker_lanes:int ->
  ?execute_lanes:int ->
  unit ->
  t
(** Defaults: 8 io, 2 batcher, 1 worker, 1 execute — the configuration the
    paper describes (it deliberately bounds consensus at one worker
    thread, §IV-B). [node] (default [-1]) labels trace events emitted by
    this server's lanes; pass the replica id when tracing is in use. *)

val node : t -> int
(** The [node] label given at creation ([-1] if none). *)

val submit : t -> resource -> cost:float -> (unit -> unit) -> unit
(** Run the continuation once a lane of [resource] has spent [cost] seconds
    on the job. Zero-cost jobs still pass through the queue (and hence run
    after the current event), preserving event ordering. *)

val busy_seconds : t -> resource -> float
(** CPU seconds the resource's lanes have worked by now, summed over
    lanes, for utilization reporting. Work submitted but still queued or
    running counts only up to the current time. *)

val backlog : t -> resource -> float

(** How far in the future the earliest-free lane of this resource is —
    the current queueing delay a new job would see. *)
