(** Tolerance-aware diffing of metric-shaped artifacts: counter tables,
    [poe_sim profile] budgets, profile/wall-clock JSON documents, and
    heartbeat JSONL streams.

    One code path, one report format, for every "two runs should agree"
    comparison in the tree. The comparison walks two parsed JSON values
    structurally and reports {e every} mismatching leaf (capped) as a
    dotted path, so drift reports show the full shape of the change, not
    just the first field.

    Determinism contract: fields tagged [{"unstable":true}] (host
    wall-clock, GC noise — see {!Poe_prof.Prof.render_json}) are
    stripped on both sides before comparison. Remaining fields compare
    under a per-field {!policy}: exact by default (deterministic
    counters must not move at all), relative-threshold for fields listed
    in the policy table (allocation totals, which legitimately shift
    with the domain-pool job count), or ignored outright. *)

type policy =
  | Exact
  | Relative of float
      (** values agree when [|a - b| <= t * max |a| |b|]; only
          meaningful for numeric leaves *)
  | Ignore

type mismatch = {
  m_path : string;  (** dotted path to the leaf, e.g. [figures.3.wall_s] *)
  m_kind : string;
      (** [value], [relative], [type], [missing-a], [missing-b] or
          [length] *)
  m_a : string;  (** rendered value ("absent" when missing) *)
  m_b : string;
}

type outcome =
  | Identical of int  (** leaves compared *)
  | Diverged of mismatch list  (** in walk order, capped at 100 *)

val diff_values :
  ?policies:(string * policy) list ->
  Poe_obs.Json.t ->
  Poe_obs.Json.t ->
  outcome
(** Structural diff of two JSON values ({!Poe_obs.Json.strip_unstable}
    applied to both). [policies] prepends to the built-in table, which
    gives allocation fields a relative threshold and leaves everything
    else exact; first match on the leaf's final path segment wins. *)

val diff_strings :
  ?policies:(string * policy) list -> string -> string -> (outcome, string) result
(** Diff two artifact strings, sniffing the format: a leading [{] or [[]
    means one JSON document per line (JSONL) when every line parses, or
    a single document; anything else is tried as a [poe_sim profile]
    budgets table ([name total per_reply] lines).
    [Error] when either side parses as nothing. *)

val diff_files :
  ?policies:(string * policy) list -> string -> string -> (outcome, string) result
(** {!diff_strings} over file contents. *)

val exit_code : outcome -> int
(** 0 identical, 4 diverged. *)

val render : ?label_a:string -> ?label_b:string -> outcome -> string
val to_json : outcome -> string
