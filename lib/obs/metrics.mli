(** A metrics registry: counters and log-bucketed latency
    histograms with quantile estimation.

    Like {!Trace}, metrics are opt-in through a module-level current
    registry; the [c*]/[h*] convenience emitters are no-ops when
    none is installed, so instrumented paths cost one load-and-branch
    when metrics are off.

    Dumps are deterministic: entries are sorted by name and all values
    derive from simulated time and event counts, never wall-clock. *)

type counter
type histogram

type t

val create : unit -> t

(** {1 Registration (get-or-create by name)} *)

val counter : t -> string -> counter
val histogram : t -> string -> histogram

(** {1 Updates} *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val observe : histogram -> float -> unit
(** Record a sample. Values are clamped into the bucketed range
    [[1e-9, 1e4]] (seconds). *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_max : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [[0, 1]]: an upper bound on the [q]-th
    quantile of the observed samples, exact to within one log bucket
    (relative error bounded by {!bucket_ratio}). 0 when empty. *)

val bucket_ratio : float
(** Ratio between consecutive histogram bucket boundaries. *)

(** {1 The current registry}

    Domain-local, like {!Trace}'s current sink: [set_current] installs
    the registry for the calling domain only, so concurrent simulations
    in a {!Poe_parallel.Pool} never share (or race on) one registry. *)

val set_current : t -> unit
val clear_current : unit -> unit
val enabled : unit -> bool

val current_registry : unit -> t option
(** The calling domain's installed registry, if any — lets samplers
    (the heartbeat's counter-delta probe) snapshot whatever registry
    the run installed without threading it through every layer. *)

val cincr : ?by:int -> string -> unit
(** Increment a counter in the current registry (no-op when disabled). *)

val hobs : string -> float -> unit

(** {1 Snapshots and deltas}

    A snapshot freezes every counter value at one instant;
    deltas between two snapshots of the same registry are what the live
    heartbeat sampler emits per interval. Both are deterministic: entries
    are sorted by name and values derive only from simulated activity. *)

type snapshot

val snapshot : t -> snapshot
(** Freeze the current counter values (sorted by name). Cheap
    enough to call on a heartbeat interval. *)

val snapshot_counters : snapshot -> (string * int) list
(** Counter values captured by the snapshot, sorted by name. *)

val delta : older:snapshot -> newer:snapshot -> (string * int) list
(** Per-counter increments between two snapshots of the same registry:
    every counter of [newer] whose value changed since [older] (counters
    absent from [older] count from 0), sorted by name. *)

(** {1 Dump} *)

type row =
  | Counter_row of string * int
  | Histogram_row of string * int * float * float * float * float * float
      (** name, count, mean, p50, p95, p99, max *)

val rows : t -> row list
(** All registered metrics, sorted by name (deterministic). *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable table of {!rows}. *)
