(** Self-profiling of the simulator itself, in host time.

    The trace/metrics layer ({!Poe_obs.Trace}, {!Poe_obs.Metrics})
    explains protocol behavior in {e simulated} time; this module explains
    what the simulator {e costs} on the host — where wall-clock seconds
    and allocated bytes go, and how many times each hot operation runs.
    Two instruments:

    {ul
    {- A fixed {b counter registry}: always-on, branch-free integer
       counters bumped from the hot paths (event queue, network, message
       construction, execution, crypto) and from the rarer protocol
       events (checkpoints, view changes, slow paths). It is the
       simulator's only counter store; {!Poe_obs.Metrics} keeps only
       histograms. Counter totals are a pure
       function of the simulated workload, so for a fixed seed they are
       byte-identical run-to-run and across job counts — which makes them
       diffable regression baselines and a check of the paper's
       per-protocol message/crypto complexity claims.}
    {- An opt-in {b scoped region profiler}: nested regions capturing
       wall-clock and allocation deltas ([Gc.allocated_bytes],
       [Gc.quick_stat]) with self-vs-total attribution, rendered as a
       top-N table, a JSON profile, or folded stacks for
       flamegraph.pl/speedscope.}}

    Both instruments store per-domain state in [Domain.DLS] (like the
    trace/metrics sinks) and merge into a global accumulator when a pool
    worker finishes a job (see [Poe_parallel.Pool.set_job_epilogue]).
    Sums and maxes are commutative, so merged counter totals do not
    depend on worker scheduling. *)

(** {1 Counter registry}

    Counters are identified by dense integer indices so a bump is an
    array store, not a hashtable probe. The registry is fixed at compile
    time; [counter_defs] lists names and kinds in index order, which is
    also the canonical rendering order. *)

type kind =
  | Sum  (** totals add across domains *)
  | Max  (** high-water marks: merged with [max] *)

(* Counter indices, each with the [counter_defs] name it counts. *)
val ix_events_pushed : int  (* [sim.events_pushed] *)
val ix_events_popped : int  (* [sim.events_popped] *)
val ix_queue_high_water : int  (* [sim.queue_high_water] (Max) *)
val ix_msgs_sent : int  (* [net.msgs_sent] *)
val ix_bytes_sent : int  (* [net.bytes_sent] *)
val ix_msgs_delivered : int  (* [net.msgs_delivered] *)
val ix_msgs_dropped : int  (* [net.msgs_dropped] *)
val ix_batches_built : int  (* [msg.batches_built] *)
val ix_batched_requests : int  (* [msg.batched_requests] *)
val ix_batches_closed : int  (* [pipeline.batches_closed] *)
val ix_closed_requests : int  (* [pipeline.batched_requests] *)
val ix_batches_executed : int  (* [exec.batches_executed] *)
val ix_txns_executed : int  (* [exec.txns_executed] *)
val ix_rollbacks : int  (* [exec.rollbacks] *)
val ix_slots_abandoned : int  (* [exec.slots_abandoned] *)
val ix_requests_submitted : int  (* [hub.requests_submitted] *)
val ix_retransmits : int  (* [hub.retransmits] *)
val ix_replies_completed : int  (* [hub.replies_completed] *)
val ix_sha256_blocks : int  (* [sha256.blocks_compressed] *)
val ix_macs_computed : int  (* [hmac.macs_computed] *)
val ix_checkpoints : int  (* [recovery.checkpoints] *)
val ix_state_transfer_requests : int  (* [recovery.state_transfer_requests] *)
val ix_divergence_repairs : int  (* [recovery.divergence_repairs] *)
val ix_snapshots_adopted : int  (* [recovery.snapshots_adopted] *)
val ix_suspicions : int  (* [recovery.suspicions] *)
val ix_view_changes : int  (* [view.changes] *)
val ix_new_views : int  (* [view.new_views] *)
val ix_slow_paths : int  (* [sbft.slow_paths] *)
val ix_commit_certs : int  (* [zyzzyva.commit_certs] *)
val ix_block_fetches : int  (* [hotstuff.block_fetches] *)
val ix_pacemaker_timeouts : int  (* [hotstuff.pacemaker_timeouts] *)

val counter_defs : (string * kind) array
(** Name and merge kind of every counter, in index order. *)

val bump : int -> unit
(** Add 1 to a counter of this domain. Always on. *)

val bump_by : int -> int -> unit
(** [bump_by ix n] adds [n]. *)

val bump_max : int -> int -> unit
(** [bump_max ix v] raises a [Max] counter to at least [v]. *)

val counters : unit -> (string * int) array
(** Current totals in index order: the global accumulator (everything
    flushed by finished pool jobs) combined with the calling domain's
    own cells. Does not mutate anything. *)

val domain_counters : unit -> (string * int) array
(** The calling domain's own cells only, in index order. Other pool
    jobs' flushes never show up here, so differences between two reads
    cover exactly the work this domain did in between. *)

val delta :
  older:(string * int) array -> newer:(string * int) array -> (string * int) array
(** Counters over an interval, in index order: the difference for [Sum]
    counters and [newer]'s value for [Max] counters. Both arguments
    come from {!counters} or {!domain_counters}. *)

val sum_deltas :
  older:(string * int) array -> newer:(string * int) array -> (string * int) list
(** The [Sum] counters of {!delta} that moved, in index order (the
    heartbeat's per-interval deltas). [Max] counters are left out: a
    pool worker resets its cells between jobs, so their values depend
    on the job count. *)

val flush_domain : unit -> unit
(** Merge the calling domain's counters and regions into the global
    accumulator and zero the domain-local state. Installed as the pool's
    job epilogue so worker-domain activity survives pool shutdown. *)

val reset : unit -> unit
(** Zero the global accumulator and the calling domain's cells, and drop
    all accumulated regions. Worker-domain cells are untouched, so only
    call this when no pool is running. *)

val restart_max : unit -> unit
(** Zero the [Max] counters of the global accumulator and of the calling
    domain, so that {!delta} over an interval starting here reads the
    interval's own high-water marks. Like {!reset}, only call this when
    no pool is running. *)

(** {1 Scoped regions}

    Regions are opt-in (a disabled [with_region] is one atomic load and
    a branch) because reading the clock and [Gc] state per region is too
    dear for always-on use, unlike the counters above. *)

val enable_regions : unit -> unit
val disable_regions : unit -> unit

val with_region : string -> (unit -> 'a) -> 'a
(** [with_region name f] runs [f] and attributes its wall-clock time and
    allocated bytes (plus minor/major collections and promoted words) to
    the region [name], nested under the innermost enclosing region of
    this domain. Exception-safe ([Fun.protect]); re-entrant per domain.
    Region paths use [;] as the separator (the folded-stack convention),
    so [name] is passed through {!escape_frame} first. *)

val escape_frame : string -> string
(** Replace [;] with [:] and whitespace with [_] so a region name can
    never corrupt the folded-stack framing. *)

type region = {
  path : string;  (** escaped frames joined with [;], root first *)
  calls : int;
  wall : float;  (** total seconds, children included *)
  self_wall : float;  (** seconds minus time in child regions *)
  alloc : float;  (** total bytes allocated, children included *)
  self_alloc : float;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
}

type snapshot = {
  counters : (string * int) array;  (** in [counter_defs] order *)
  regions : region list;  (** sorted by [path] *)
}

val snapshot : unit -> snapshot
(** Capture counters and regions (global accumulator + calling domain)
    without disturbing them. *)

(** {1 Renderers}

    All three are pure functions of a {!snapshot}; capture first, render
    later, so rendering cost never pollutes the measurements. *)

val render_table : ?top:int -> snapshot -> string
(** Human-readable profile: top-[top] (default 20) regions by self
    wall-clock, then every counter, then per-request budgets (each [Sum]
    counter divided by [hub.replies_completed]). *)

val render_json : snapshot -> string
(** Machine-readable profile. Counter and budget sections are
    deterministic for a fixed seed and job count; host-time-dependent
    fields (wall-clock, GC collection counts) are wrapped as
    [{"unstable": true, "value": ...}] so consumers can strip them
    before comparing. *)

val render_folded : snapshot -> string
(** Folded stacks — one line per region, [path self_wall_us] with the
    weight in integer microseconds of {e self} time — directly loadable
    by flamegraph.pl and speedscope. *)

val render_budgets : snapshot -> string
(** Deterministic per-request budget lines ([name total per_reply]),
    the format diffed by [bench/check_budgets.sh] against committed
    baselines. *)

(** {1 Bench wall-clock artifact} *)

type bench_figure = {
  fig_name : string;
  fig_wall_s : float;
  fig_alloc_bytes : float;  (** driving-domain allocation delta *)
  fig_minor : int;
  fig_major : int;
  fig_promoted : float;
  fig_counters : (string * int) list;
      (** counters over the figure, in [counter_defs] order, as
          {!delta} reads them: the figure's own high water for [Max]
          counters *)
}

val wallclock_json :
  jobs:int -> quick:bool -> scale:float -> clients:int -> bench_figure list -> string
(** The [BENCH_wallclock.json] document: per-figure wall-clock (tagged
    unstable), allocation, GC stats (tagged unstable), counter deltas
    and per-request budgets — the committed perf trajectory that the
    hot-path optimization pass is judged against. [jobs], [quick],
    [scale] and [clients] identify the bench configuration so the trend
    tracker only applies exact-match gates between comparable runs. *)
