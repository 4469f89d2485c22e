(** The mid-run safety auditor: samples every replica's observable state
    throughout a chaos run and latches the first invariant violation with
    its timestamp, so a broken protocol is caught the instant it diverges
    rather than at the end-of-run postmortem.

    Invariants checked at every sample:

    - {b committed-prefix agreement}: currently-honest, connected replicas
      never hold different digests for the same sequence number. For
      speculatively-executing protocols (PoE), where a view change may
      legitimately roll back an uncertified suffix, the mid-run comparison
      is limited to each pair's common stable-checkpoint prefix — entries
      below a stable checkpoint are certified by nf replicas and may never
      differ; {!final_check} then compares the full overlap once the run
      has quiesced.
    - {b ledger hash-chain validity}: every materialized replica's chain
      re-verifies (parent hashes, heights) — this includes paused and
      byzantine-flipped replicas, whose local ledger must stay
      well-formed even while they misbehave on the wire. The check walks
      the retained suffix from the anchor at the stable checkpoint; the
      anchor's hash binds the pruned prefix.
    - {b stable checkpoints never roll back}: once a replica reports a
      seqno stable, the digests at and below it are frozen; any later
      sample seeing one missing or rewritten is a violation. Snapshot
      installation legitimately replaces history, so the baseline resets
      when the replica's snapshot generation changes.
    - {b at-most-once execution}: a replica re-executing a (client, rid)
      it already executed — e.g. replaying a retransmission after
      checkpoint GC — trips its duplicate counter and is reported. *)

type violation = {
  at : float;  (** simulated time of the detecting sample *)
  invariant : string;
      (** ["prefix-agreement"], ["chain-integrity"],
          ["checkpoint-rollback"] or ["at-most-once"] *)
  replica : int option;  (** offender, when attributable to one replica *)
  detail : string;
  seqnos : int list;
      (** sequence numbers implicated by the check, when it knows them
          (disagreeing or rewritten slots); input to the forensic
          explainer *)
}

type t

val create :
  ctxs:Poe_runtime.Replica_ctx.t array ->
  speculative:bool ->
  paused:(int -> bool) ->
  unit ->
  t
(** [speculative] selects the relaxed mid-run agreement mode described
    above; [paused] tells the auditor which replicas are currently
    disconnected by the schedule (they are skipped by the cross-replica
    check — a paused replica may legitimately hold a stale speculative
    suffix — but still audited for their local invariants). *)

val sample : t -> now:float -> unit
(** Run every check once; the first violation (across the whole run) is
    latched and later samples are cheap no-ops. *)

val final_check : t -> now:float -> unit
(** The end-of-run strict pass: full-overlap prefix agreement regardless
    of [speculative], plus all local invariants. *)

val violation : t -> violation option
val samples : t -> int
val pp_violation : Format.formatter -> violation -> unit
