(** Structural diffing of two exported event traces.

    Two runs of the simulator with the same seed and configuration must
    emit byte-identical traces; this module turns "they differ" into
    "where consensus first diverged". Events are aligned structurally —
    the diff walks both streams in emission order while tracking each
    slot's lifecycle (from the same span structure {!Poe_analysis.Slot_life}
    reconstructs) — so the first divergence is reported in consensus
    coordinates: (event index, node, seqno, phase, field), with a
    windowed context dump of both sides around the split.

    The diff is ring-eviction-aware: a trace whose prefix was evicted by
    the ring buffer on one side only can never be index-aligned with a
    complete trace, so it is reported as {!Incomparable_prefix} rather
    than as a (spurious) divergence. Structurally un-diffable inputs —
    an empty trace against a nonempty one, traces from two different
    protocols — are reported as {!Incompatible}, a deterministic
    structured error, never an exception. *)

type side = A | B

type divergence = {
  d_index : int;  (** 0-based event index at which the streams split *)
  d_ts : float;  (** simulated timestamp of side A's event (side B's when
                     A ended early) *)
  d_node : int;
  d_seqno : int;  (** -1 when the event carries no consensus coordinate *)
  d_phase : string;
      (** the slot phase in flight at the diverging event ("propose",
          "execute", ...), or the event's own name outside any slot *)
  d_field : string;
      (** first differing event field: one of ts/node/tid/cat/name/ph/
          dur/view/seqno, [args.<key>] for an argument value, [args] for
          an argument-list shape change, or [event-count] when one trace
          is a strict prefix of the other *)
  d_a : string;  (** rendered value (or JSONL line) on side A *)
  d_b : string;
  d_context_a : string list;
      (** JSONL lines of the surrounding window on side A *)
  d_context_b : string list;
}

type outcome =
  | Identical of int  (** number of events compared *)
  | Diverged of divergence
  | Incomparable_prefix of { side : side; detail : string }
      (** the ring evicted part of one side's history: prefixes cannot
          be aligned, so no divergence claim is made *)
  | Incompatible of string
      (** structurally un-diffable inputs (empty vs nonempty trace,
          different protocols); deterministic, never an exception *)

val diff_events :
  ?window:int ->
  a:Poe_obs.Trace.event list ->
  b:Poe_obs.Trace.event list ->
  unit ->
  outcome
(** Compare two event streams. [window] (default 3) bounds the context
    dump on each side of the divergence. *)

val diff_files : ?window:int -> string -> string -> (outcome, string) result
(** Load two JSONL exports with {!Poe_analysis.Trace_reader} and diff
    them. [Error] only for unreadable/unparseable files. *)

val exit_code : outcome -> int
(** The CLI contract: 0 identical, 4 diverged or incomparable-prefix,
    1 incompatible inputs. *)

val render : ?label_a:string -> ?label_b:string -> outcome -> string
(** Human-readable report (deterministic). *)

val to_json : outcome -> string
(** Machine-readable report, one JSON document. *)
