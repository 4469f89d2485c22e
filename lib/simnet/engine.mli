(** The discrete-event simulation engine: a virtual clock plus an event
    queue of callbacks. This is the substrate standing in for the paper's
    Google Cloud deployment (and is the same methodology the paper itself
    uses in §IV-I for its Fig. 11 validation). *)

type t

val create : ?seed:int -> unit -> t

val now : t -> float
(** Current simulated time, in seconds. *)

val rng : t -> Rng.t
(** The engine's root random stream (use {!Rng.split} for sub-streams). *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a callback [delay] seconds from now. Negative delays are clamped
    to zero (i.e., run "immediately" but still through the queue, after
    already-pending events at the current instant). An event cannot be
    cancelled: a callback that may be superseded checks its own state when
    it fires. The engine drops its reference to the callback once it has
    run. *)

val run : ?until:float -> t -> unit
(** Process events in timestamp order until the queue empties or the clock
    would pass [until] (events at exactly [until] are processed). *)

val step : t -> bool
(** Process a single event; [false] when the queue is empty. *)

val pending_events : t -> int

val processed_events : t -> int
(** Total events executed since creation (performance diagnostics). *)

(** {1 Step budget}

    A hard upper bound on the number of further events the engine may
    process — the last-resort liveness guard for runs that would
    otherwise spin forever in host time (e.g. a pathological zero-delay
    timer loop where simulated time stops advancing). Orthogonal to
    [~until], which bounds {e simulated} time. *)

val set_step_budget : t -> int option -> unit
(** [Some k] allows [k] more events ([run]/[step] then stop processing);
    [None] (the default) removes the bound. *)

val budget_exhausted : t -> bool
(** The budget reached zero: the engine is frozen and {!run}/{!step} are
    no-ops. Callers (the chaos runner's watchdog) should treat this as a
    stall, not as completion. *)
