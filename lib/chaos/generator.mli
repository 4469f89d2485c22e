(** Seeded random fault-schedule generation.

    The generator is a pure function of its seed: the same seed, cluster
    size and profile always produce the identical schedule (the entries
    print byte-for-byte the same), which is what makes a chaos failure a
    one-line bug report — "seed 7134 violates agreement" — instead of a
    core dump.

    Fault-budget discipline: at any instant at most [f = (n-1)/3] replicas
    are faulty (paused or byzantine-flipped), because beyond that the
    protocols promise nothing and every run would "find" vacuous
    violations. Partitioned groups count against the same budget. Every
    fault is paired with its cure (recover / restore / heal / episode end)
    inside the horizon, so the tail of the run is clean and the cluster
    gets a fair chance to converge before the final strict audit. *)

type profile = {
  crashes : int;  (** fail-pause/resume episodes to attempt *)
  byz_flips : int;  (** byzantine flip/restore episodes to attempt *)
  partitions : int;
  link_blocks : int;  (** single directed link cuts *)
  loss_bursts : int;
  latency_surges : int;
}
(** Episode counts are attempts: an episode that cannot fit without
    exceeding the fault budget is dropped, so the generated schedule may
    be smaller. *)

val byzantine_ok : protocol:string -> bool
(** Whether a protocol tolerates byzantine behavior flips. [true] for all
    five protocols: every one now has a replica-driven view change, so a
    byzantine primary costs at most a failover. (Historically [false] for
    SBFT and Zyzzyva, whose [on_suspect] used to be a no-op.) The hook is
    kept for future protocols that genuinely cannot absorb flips. *)

val generate :
  ?profile:profile ->
  ?reserved:(int * float * float) list ->
  seed:int ->
  n:int ->
  byzantine:bool ->
  horizon:float ->
  unit ->
  Schedule.t
(** [horizon] is the active window: every injected fault is cured by then.
    [byzantine] gates behavior flips (pass [byzantine_ok ~protocol]).
    [reserved] lists [(replica, from, until)] fault intervals injected
    from outside the generator (e.g. a forced primary silencing): they
    pre-consume the fault budget, so composing the generated schedule
    with those faults still never exceeds f concurrently faulty
    replicas. *)
