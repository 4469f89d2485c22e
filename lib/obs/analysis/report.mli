(** Deterministic rendering of analysis results.

    Everything here is Printf-into-Buffer with fixed-precision floats:
    the same analysis input yields byte-identical text and JSON, so
    reports from same-seed runs can be diffed (and are tested to match
    exactly). *)

val breakdowns_to_string : Attribution.breakdown list -> string
(** Human-readable per-protocol phase breakdown. *)

val breakdowns_json : Attribution.breakdown list -> string
(** [{"protocols":[{"protocol":...,"phases":[...],"slot":{...},
    "e2e":{...}}]}] — the schema BENCH_*.json and [analyze --json]
    share. *)

val path_to_string : seqno:int -> node:int -> Causal.step list -> string
(** Render one critical path (as printed inside forensic reports). *)

val forensics_to_string : Forensics.t -> string
(** The full forensic report: violation header, implicated slots,
    divergence point, fault-schedule actions, per-slot critical paths
    and the cross-replica causal timeline. *)
