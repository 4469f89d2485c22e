(** Bench-trend tracking: the PR-over-PR perf trajectory the ROADMAP's
    hot-path pass needs, as a regression gate.

    A {e snapshot} is one directory of bench artifacts — the
    [BENCH_wallclock.json] self-profile plus the [BENCH_<fig>.json]
    figure payloads one [bench/] run emits. A {e trend directory} holds
    snapshots as subdirectories whose names sort chronologically
    ([0001-baseline], [0002-after-batching], ...); the last one is the
    current run.

    {!analyze} compares the current snapshot against the previous one
    and against the best historical wall-clock per figure, and flags
    regressions with noise-aware rules: wall-clock is gated by a
    configurable relative threshold (and only against snapshots taken
    with the same job count), allocation by a relative threshold when
    job counts match, while figure payloads and deterministic counters
    must match {e exactly} whenever the bench configuration
    (quick/scale/clients) matches — those derive from simulated time
    only, so any drift is a real behavior change, not noise. *)

type fig = {
  f_name : string;
  f_wall : float;  (** host seconds, from the unstable-tagged wrapper *)
  f_alloc : float;
  f_counters : Poe_obs.Json.t;
  f_budgets : Poe_obs.Json.t;
}

type snapshot = {
  s_name : string;  (** subdirectory name *)
  s_jobs : int;
  s_quick : bool;
  s_scale : float;
  s_clients : int option;  (** absent in pre-[clients]-field snapshots *)
  s_figures : fig list;
  s_payloads : (string * string) list;
      (** raw [BENCH_<fig>.json] contents by filename, sorted *)
}

type fig_trend = {
  t_figure : string;
  t_wall : float;
  t_wall_prev : float option;  (** previous snapshot, same figure *)
  t_wall_best : float option;
      (** best (minimum) among prior same-configuration snapshots *)
  t_delta_prev : float option;  (** (cur - prev) / prev *)
  t_delta_best : float option;
}

type regression = { r_figure : string; r_kind : string; r_detail : string }
(** [r_kind] is [wall], [alloc], [counters] or [payload]. *)

type report = {
  rp_dir : string;
  rp_current : string;
  rp_previous : string option;
  rp_snapshots : int;
  rp_wall_threshold : float;
  rp_figures : fig_trend list;
  rp_regressions : regression list;
}

val load_snapshot : dir:string -> name:string -> (snapshot, string) result
(** Load one snapshot subdirectory; structured [Error] on a missing or
    malformed [BENCH_wallclock.json], never an exception. *)

val load_dir : string -> (snapshot list, string) result
(** All snapshot subdirectories of a trend directory, sorted by name.
    Subdirectories without a [BENCH_wallclock.json] are skipped. *)

val analyze : ?wall_threshold:float -> dir:string -> snapshot list -> (report, string) result
(** Build the trend report for the last snapshot in the list.
    [wall_threshold] (default 0.10) is the relative wall-clock slowdown
    tolerated vs. the previous same-jobs snapshot. *)

val regressed : report -> bool

val render_table : report -> string
(** Deterministic table: per-figure wall, delta vs previous, delta vs
    best, then the regression list. *)

val render_json : report -> string
(** The [BENCH_trend.json] document (schema [poe-bench-trend-v1]). *)

val exit_code : report -> int
(** 0 clean, 4 when any regression fired. *)
