(** A metrics registry of log-bucketed latency histograms with quantile
    estimation. Counters live in [Poe_prof.Prof]'s fixed registry, which
    is always on; this registry holds only distributions.

    Like {!Trace}, metrics are opt-in through a module-level current
    registry; {!hobs} is a no-op when none is installed, so instrumented
    paths cost one load-and-branch when metrics are off.

    Dumps are deterministic: entries are sorted by name and all values
    derive from simulated time and event counts, never wall-clock. *)

type histogram

type t

val create : unit -> t

(** {1 Registration (get-or-create by name)} *)

val histogram : t -> string -> histogram

(** {1 Updates} *)

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
(** The calling domain's installed registry, if any — lets a reader find
    whatever registry the run installed without threading it through
    every layer. *)

val hobs : string -> float -> unit
(** Record a sample in the current registry (no-op when disabled). *)

(** {1 Dump} *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable table of every histogram, sorted by name: count,
    mean, p50, p95, p99 and max. Prints nothing when the registry is
    empty. *)
