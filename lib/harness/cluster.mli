(** Assemble and run a full simulated deployment of one protocol: replicas
    with their CPU pipelines, client machines, the network, and
    measurement — the harness equivalent of the paper's Google Cloud
    testbed plus client machines. *)

module R := Poe_runtime

type params = {
  config : R.Config.t;
  cost : R.Cost.t;
  latency : Poe_simnet.Latency.t;
  bandwidth : float option;  (** outgoing NIC bytes/s per node *)
  loss : float;
  warmup : float;
  measure : float;
  autostart_clients : bool;
      (** when false, hubs are wired but never submit; a custom driver
          injects requests itself (the Fig. 11 simulation) *)
}

val default_params : config:R.Config.t -> params
(** Intra-datacenter latency (0.3 ms base + 0.15 ms jitter), 10 Gbit NICs,
    no loss, 1 s warmup, 3 s measurement — a scaled-down version of the
    paper's 60 s + 120 s windows (the simulator reaches steady state much
    faster than a JIT-warmed JVM-era deployment). *)

module Make (P : R.Protocol_intf.S) : sig
  type t = {
    params : params;
    engine : Poe_simnet.Engine.t;
    net : R.Message.t Poe_simnet.Network.t;
    stats : R.Stats.t;
    replicas : P.replica array;
    hubs : R.Hub_core.t array;
  }

  val build : params -> t
  (** Create every component and arm the start events (nothing runs until
      {!run}). *)

  val run : ?until:float -> t -> unit
  (** Advance the simulation to [until] (default: warmup + measure). *)

  val crash_replica : t -> int -> at:float -> unit
  (** Schedule a fail-stop crash. Must be called before {!run} reaches
      [at]. *)

  val set_behavior : t -> int -> R.Replica_ctx.behavior -> unit

  val throughput : t -> float
  val avg_latency : t -> float

  val replica_ctx : t -> int -> R.Replica_ctx.t

  val replica_ctxs : t -> R.Replica_ctx.t array
  (** Every replica's context, in id order — what the chaos safety auditor
      samples (executed digests, stable checkpoints, chains, behaviors). *)

  val pause_replica : t -> int -> unit
  (** Fail-pause (Jepsen SIGSTOP style): disconnect the node at the network
      layer — it sends and receives nothing — while its state and timers
      survive. {!resume_replica} reconnects it; the recovery machinery then
      pulls it level. Unlike {!crash_replica} this is reversible, which is
      what a chaos schedule's crash/recover pair needs. *)

  val resume_replica : t -> int -> unit
  val is_paused : t -> int -> bool

  val every : t -> interval:float -> (unit -> unit) -> unit
  (** Run a callback every [interval] simulated seconds for the rest of the
      run (first firing after one interval) — the hook the chaos auditor
      and custom samplers attach to. *)

  val live_sample :
    ?deltas:(string * int) list -> seq:int -> t -> Poe_live.Heartbeat.sample
  (** One health probe over the whole deployment: per-replica
      view/exec/commit watermarks and liveness, engine queue depth,
      aggregate in-flight/completed client requests and
      oldest-outstanding age. Reads simulated state only, so the sample
      is deterministic per seed. [deltas] is passed through verbatim
      ({!attach_heartbeat} supplies the counter deltas). *)

  val progress_counter : t -> int
  (** Monotone cluster-wide work counter (total executed batches plus
      total completed client requests) — what the stall watchdog
      {!Poe_live.Watchdog.observe}s. *)

  val attach_heartbeat :
    ?on_sample:(Poe_live.Heartbeat.sample -> unit) ->
    t ->
    Poe_live.Heartbeat.t ->
    unit
  (** Arm a recurring sampler (via {!every}) at the heartbeat's interval:
      each tick reads the calling domain's {!Poe_prof.Prof} cells for the
      counter deltas, builds a {!live_sample} and records it.
      [on_sample] additionally sees each sample (the watchdog and
      [--watch] renderer hook in here). Call before {!run}. *)

  val state_summary : t -> string
  (** Terse per-replica and per-hub state dump (one line each) for
      flight-recorder bundles. *)

  val committed_prefix_agrees : t -> bool
  (** Safety invariant used by tests: the executed (seqno, digest) logs of
      all live honest replicas are pairwise prefix-compatible. *)
end
