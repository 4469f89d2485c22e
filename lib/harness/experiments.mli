(** One runner per table/figure of the paper's evaluation (§IV).

    Each runner returns structured measurements (and can print them in the
    paper's layout); `bench/main.ml` and `bin/poe_sim.ml` drive them. The
    experiment index lives in DESIGN.md; paper-vs-measured numbers in
    EXPERIMENTS.md. The [scale] parameter multiplies the simulated
    measurement window (1.0 ≈ a 2 s window; the paper used 120 s on real
    hardware — steady-state in the simulator is reached much faster). *)

type protocol = Poe | Pbft | Zyzzyva | Sbft | Hotstuff

val all_protocols : protocol list
val protocol_name : protocol -> string

type point = {
  protocol : string;
  x : float;            (** swept parameter (n, batch size, delay ms, ...) *)
  throughput : float;   (** transactions per second *)
  latency : float;      (** average client latency, seconds *)
  decisions : float;    (** consensus decisions per second *)
  messages_per_decision : float;
  bytes_per_decision : float;
}

type series = {
  figure : string;      (** e.g. "fig9ab" *)
  title : string;
  x_label : string;
  points : point list;
}

val print_series : Format.formatter -> series -> unit
(** Aligned table, protocols × swept parameter. *)

val series_json : series -> string
(** The [BENCH_<fig>.json] document for a series — one canonical
    encoder shared by [bench/] and the determinism tests, so a jobs-1
    and a jobs-4 run can be compared artifact-to-artifact. *)

val instrumented :
  ?node_name:(int -> string) ->
  ?trace:Poe_obs.Trace.format * string ->
  ?metrics:bool ->
  ?profile:bool ->
  ?on_trace:(Poe_obs.Trace.t -> unit) ->
  ?on_profile:(Poe_prof.Prof.snapshot -> unit) ->
  (unit -> 'a) ->
  'a
(** [instrumented ?trace ?metrics f] runs [f] with a fresh trace sink
    and/or metrics registry installed as the process-wide current ones
    (clusters built inside [f] pick them up). On return the trace is
    written to the given path in the given format; with [metrics] every
    {!Poe_prof.Prof} counter over the run ({!Poe_prof.Prof.delta}, in
    [counter_defs] order) and then the histogram table are printed to
    stdout. Both are uninstalled even if [f] raises.
    [on_trace] forces a sink even without a trace path and receives the
    (uninstalled) sink after [f] returns — this is how [--report] runs
    analysis without also writing a raw trace file.

    With [profile] the hot-path counter accumulator is reset, the region
    profiler is enabled around [f] (disabled again even on exceptions),
    the top-N table is printed to stdout, and [on_profile] (if any)
    receives the captured {!Poe_prof.Prof.snapshot} — the hook the CLI
    uses to write JSON and folded-stack files. *)

(** {1 The experiments}

    Every runner accepts [?jobs] (default 1): with [jobs > 1] the
    independent grid points (one simulation each) are fanned out over a
    {!Poe_parallel.Pool} of that many domains. Results are reassembled
    in submission order and each point seeds its own engine and RNG
    streams, so the returned series — and anything serialized from it —
    is byte-identical for every job count; [jobs = 1] is the plain
    sequential path in the calling domain. Note that with [jobs > 1]
    the points run in worker domains, whose trace/metrics state is
    domain-local: a sink installed by {!instrumented} in the calling
    domain does not capture them. *)

val fig1_message_census : ?scale:float -> ?jobs:int -> unit -> series
(** Fig. 1's table, measured: consensus messages per decision for each
    protocol at n=16 with a good primary (the paper's analytic counts are
    printed alongside by the bench driver). *)

val fig7_upper_bound : ?scale:float -> ?jobs:int -> unit -> series
(** System characterization: no-consensus throughput/latency, without and
    with execution. [x] is 0 (no exec) or 1 (exec). *)

val fig8_signatures : ?scale:float -> ?jobs:int -> unit -> series
(** PBFT at n=16 under None / ED / CMAC signature schemes
    ([x] = 0, 1, 2 respectively). *)

type fig9_variant = Standard_failure | Standard_nofail | Zero_failure | Zero_nofail

val fig9_scalability :
  ?scale:float -> ?clients_per_hub:int -> ?ns:int list -> ?jobs:int ->
  fig9_variant -> series
(** Fig. 9(a-h): throughput and latency while scaling replicas, under
    standard/zero payload × single-backup-failure/no-failure. *)

val fig9_batching :
  ?scale:float -> ?clients_per_hub:int -> ?batch_sizes:int list -> ?jobs:int ->
  unit -> series
(** Fig. 9(i,j): n=32, one crashed backup, batch size swept. *)

val fig9_no_ooo : ?scale:float -> ?ns:int list -> ?jobs:int -> unit -> series
(** Fig. 9(k,l): out-of-order processing disabled (sequential window). *)

val fig10_view_change :
  ?scale:float -> ?clients_per_hub:int -> ?jobs:int -> unit ->
  (string * (float * float) list) list
(** Fig. 10: throughput timeline (1 s buckets) for PoE and PBFT with the
    primary crashing mid-run; returns [(protocol, (time, txn/s) list)]. *)

val fig11_simulation : ?out_of_order:bool -> ?ns:int list ->
  ?delays_ms:float list -> ?jobs:int -> unit -> series
(** Fig. 11: the paper's pure-message-delay simulation — 500 consensus
    decisions, zero computational cost, fixed delay; [x] is the delay in
    ms and [decisions] the metric of interest. With [out_of_order] the
    last plot's variant (window 250) runs instead. *)
