(** Drive a fault schedule against a live cluster of any protocol, with
    the safety auditor sampling throughout, and shrink failing schedules
    to minimal reproducers.

    A chaos run is a pure function of one integer seed: the seed fixes
    the generated schedule, the cluster's RNG streams, and the
    Gilbert–Elliott dwell draws, so any violation reproduces from its
    seed alone ([run_seed]) or from its printed schedule ([run]). *)

module Make (P : Poe_runtime.Protocol_intf.S) : sig
  type attribution = {
    a_diff : Poe_diff.Trace_diff.outcome;
        (** first divergence between the faulty run's trace and a
            fault-free re-run of the same parameters (same seed, fresh
            cluster, schedule stripped), with chaos marker events
            excluded from both sides *)
    a_faults : Poe_analysis.Forensics.fault list;
        (** the schedule actions that had fired by the divergence point
            — the faults the divergence is attributable to *)
    a_clean_verdict : string;
        (** verdict of the fault-free re-run: ["clean"] confirms the
            schedule caused the violation; ["violation"]/["stall"]
            means the bug reproduces without any injected fault *)
  }

  type outcome = {
    schedule : Schedule.t;
    violation : Auditor.violation option;
    forensics : Poe_analysis.Forensics.t option;
        (** the violation explained from this run's trace slice —
            implicated slots, divergence point, causal timeline, fault
            intersection; present only when a trace sink was installed
            around the run *)
    attribution : attribution option;
        (** fault-attribution diff against a clean same-seed baseline;
            present only on violation with a trace sink installed.
            Schedule shrinking ({!minimize}) and the internal clean
            re-run itself never attribute. *)
    stall : Poe_live.Watchdog.stall option;
        (** liveness verdict: the cluster stopped making commit progress
            with requests outstanding for a full stall window (or the
            step budget ran out). Never set alongside [violation] —
            safety dominates in the verdict lattice. *)
    heartbeats : string;
        (** this run's heartbeat JSONL stream, [""] when no heartbeat
            was armed; byte-identical per seed after
            {!Poe_obs.Json.strip_unstable_text} *)
    flight : string option;
        (** directory a flight-recorder bundle was written to (set only
            when [flight_dir] was passed and the run was not clean) *)
    completed : int;  (** client requests completed across all hubs *)
    samples : int;  (** auditor samples taken *)
    final_time : float;  (** simulated time when the run stopped *)
  }

  val verdict : outcome -> string
  (** ["violation"], ["stall"] or ["clean"] — the lattice top-down. *)

  val exit_code : outcome -> int
  (** The CLI contract: 0 clean, 1 safety violation, 3 stall. (2 is
      cmdliner's usage-error code, deliberately skipped.) *)

  val default_params : seed:int -> n:int -> Poe_harness.Cluster.params
  (** A small materialized cluster (tight batches, few clients, fast
      timeouts, short checkpoint period) sized so a multi-second chaos
      round runs in wall-clock seconds. *)

  val speculative : bool
  (** Whether this protocol executes speculatively (currently: PoE), which
      selects the auditor's relaxed mid-run agreement mode. *)

  val run :
    ?sample_interval:float ->
    ?horizon:float ->
    ?drain:float ->
    ?stall_window:float ->
    ?heartbeat_interval:float ->
    ?on_heartbeat:(Poe_live.Heartbeat.sample -> unit) ->
    ?flight_dir:string ->
    ?step_budget:int ->
    params:Poe_harness.Cluster.params ->
    schedule:Schedule.t ->
    unit ->
    outcome
  (** Build a fresh cluster from [params], arm every schedule entry (each
      application emits a ["chaos"] trace instant), and advance the engine
      in [sample_interval] slices with an auditor sample after each — the
      run stops at the first violation. [horizon] (default 2.0 s) is the
      fault window; the extra [drain] (default 1.2 s) runs fault-free so
      the cluster can converge before the final strict audit.

      [stall_window] arms the {!Poe_live.Watchdog}: if cluster-wide
      commit progress (executed batches + completed requests) stops for
      that many simulated seconds while requests are outstanding, the run
      stops with a [stall] verdict and the final strict audit is skipped
      (a stalled cluster never quiesced, so auditing it would report
      stall artifacts as violations). [step_budget] bounds engine events
      processed; exhaustion also latches a stall (reason
      ["step-budget"]) — the host-liveness guard for runs that would
      otherwise grind. [heartbeat_interval] arms the deterministic
      heartbeat sampler ([on_heartbeat] sees each sample — the [--watch]
      hook). [flight_dir] writes a {!Poe_live.Flight} bundle there when
      the run ends in violation or stall. *)

  val run_seed :
    ?profile:Generator.profile ->
    ?n:int ->
    ?horizon:float ->
    ?drain:float ->
    ?stall_window:float ->
    ?heartbeat_interval:float ->
    ?on_heartbeat:(Poe_live.Heartbeat.sample -> unit) ->
    ?flight_dir:string ->
    ?step_budget:int ->
    ?extra:Schedule.t ->
    seed:int ->
    unit ->
    outcome
  (** Generate the schedule for [seed] (byzantine flips gated on
      {!Generator.byzantine_ok} for this protocol), merge in [extra]
      entries (sorted by time; used by [--silence-primary] and targeted
      tests), and run it on [default_params ~seed]. *)

  val run_sweep :
    ?profile:Generator.profile ->
    ?n:int ->
    ?horizon:float ->
    ?drain:float ->
    ?stall_window:float ->
    ?heartbeat_interval:float ->
    ?flight_dir:string ->
    ?step_budget:int ->
    ?extra:Schedule.t ->
    ?jobs:int ->
    seeds:int list ->
    unit ->
    (int * outcome) list
  (** Run one {!run_seed} per seed, fanned out over a
      {!Poe_parallel.Pool} of [jobs] domains (default 1 = sequential in
      the calling domain). Every job installs its own domain-local trace
      sink for the duration of its run — so each outcome carries
      forensics on violation regardless of any caller-installed sink,
      which is saved and restored around sequential jobs. Outcomes are
      returned in [seeds] order; verdicts are byte-identical for any
      [jobs] value. *)

  val minimize :
    ?max_runs:int ->
    ?horizon:float ->
    ?drain:float ->
    ?stall_window:float ->
    ?step_budget:int ->
    ?check:(outcome -> bool) ->
    params:Poe_harness.Cluster.params ->
    schedule:Schedule.t ->
    violation_at:float ->
    unit ->
    Schedule.t * int
  (** Greedily shrink a failing schedule to a locally-minimal reproducer:
      entries after the violation time are dropped outright (they never
      ran), then single entries are removed as long as a fresh run of the
      reduced schedule still fails the oracle. [check] (default: any
      safety violation) decides what "fails" means — stall minimization
      passes [fun o -> o.stall <> None] along with the same
      [stall_window]/[step_budget] that caught the original stall.
      Returns the reduced schedule and the number of oracle runs spent
      (bounded by [max_runs], default 64). *)
end
