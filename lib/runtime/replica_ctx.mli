(** Everything a protocol replica needs from its environment: identity,
    configuration, clock, authenticated network sends with cost accounting,
    CPU lanes, timers, and the (optional) materialized application state —
    KV store, undo log, and blockchain ledger.

    Protocol implementations (PoE, PBFT, ...) are written purely against
    this interface, so the same protocol code runs in correctness tests
    (materialized state, real rollbacks) and in performance experiments
    (cost-only execution). *)

type behavior =
  | Honest
  | Silent
      (** byzantine-mute: all sends are suppressed (votes, checkpoints,
          responses) while the replica keeps receiving and executing;
          unlike {!kill} it can later flip back to [Honest] *)
  | Equivocate
      (** byzantine primary: proposes different batches to different
          replicas (Example 3, case 1) *)
  | Keep_in_dark of int list
      (** byzantine primary: skips these replicas when proposing
          (Example 3, case 2) *)
  | Stop_proposing
      (** byzantine primary: accepts requests but never proposes
          (Example 3, case 3) *)

type t

val create :
  id:int ->
  config:Config.t ->
  cost:Cost.t ->
  engine:Poe_simnet.Engine.t ->
  net:Message.t Poe_simnet.Network.t ->
  server:Server.t ->
  stats:Stats.t ->
  rng:Poe_simnet.Rng.t ->
  ?threshold:Poe_crypto.Threshold.scheme * Poe_crypto.Threshold.signer ->
  unit ->
  t
(** Network node ids: replicas occupy [0 .. n-1]; client hub [h] occupies
    [n + h]. When [config.materialize] is set, the replica gets a private
    KV store (populated with the small YCSB profile), undo log, and
    ledger. *)

val id : t -> int
val config : t -> Config.t
val cost : t -> Cost.t
val now : t -> float
val rng : t -> Poe_simnet.Rng.t
val stats : t -> Stats.t
val server : t -> Server.t

val is_primary_of : t -> int -> bool
(** [is_primary_of ctx view] *)

(** {1 Trace shorthands}

    Pre-guarded wrappers around {!Poe_obs.Trace.phase} and
    {!Poe_obs.Trace.instant} that stamp the event with this replica's id
    and current simulated time — the boilerplate every protocol module
    used to duplicate. No-ops (one load and branch) when tracing is
    off. *)

val trace_phase : t -> cat:string -> view:int -> seqno:int -> string -> unit

val trace_instant :
  ?view:int ->
  ?seqno:int ->
  ?args:(string * Poe_obs.Trace.arg) list ->
  t ->
  cat:string ->
  string ->
  unit

(** {1 Liveness and fault injection} *)

val alive : t -> bool

val kill : t -> unit
(** Fail-stop: suppress all future sends, receives, timers and CPU work. *)

val behavior : t -> behavior
val set_behavior : t -> behavior -> unit

(** {1 Communication}

    Each send charges the output-thread cost ([msg_out] plus per-byte) on
    the [Io] resource before the message reaches the NIC, mirroring
    ResilientDB's output threads. *)

val send_replica : t -> dst:int -> bytes:int -> Message.t -> unit
val send_hub : t -> hub:int -> bytes:int -> Message.t -> unit

val broadcast_replicas : ?include_self:bool -> t -> bytes:int -> Message.t -> unit
(** One aggregated CPU charge for the whole fan-out, then a send per peer.
    With [include_self] (default false) the message is also delivered
    locally (through the queue, not recursively). *)

val broadcast_to : t -> dsts:int list -> bytes:int -> Message.t -> unit
(** Targeted multicast, e.g. for equivocation experiments. *)

(** {1 Timers and CPU work} *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** The callback is dropped if the replica has been killed meanwhile. *)

val work : t -> Server.resource -> cost:float -> (unit -> unit) -> unit
(** Occupy a CPU lane for [cost] seconds, then run the continuation
    (dropped if killed meanwhile). *)

(** {1 Application state (materialized runs)} *)

val execute_batch :
  t -> view:int -> seqno:int -> Message.batch ->
  proof:Poe_ledger.Block.proof -> string
(** Apply every transaction of the batch to the KV store (recording undos),
    append a ledger block, and return the digest of the execution results.
    In cost-only runs this is a no-op returning the batch digest.
    Execution CPU must be charged by the caller (protocols submit to the
    [Execute] lane first), since batching of the charge is protocol
    specific. *)

val vote_certificate : t -> Quorum.t -> Poe_ledger.Block.proof
(** The proof a slot decided by the votes of [quorum] hands to
    {!execute_batch}: its signers when this replica keeps a ledger, and
    [No_proof] otherwise, since nothing else reads a proof. *)

val rollback_to : t -> seqno:int -> int
(** Revert speculative batches with seqno strictly greater than the
    argument (undo log + ledger); returns number of batches reverted.
    No-op (returning 0) in cost-only runs. *)

val stable_checkpoint : t -> seqno:int -> unit
(** Garbage-collect undo information up to and including [seqno], and
    prune the ledger to its anchor there ({!Poe_ledger.Chain.prune_below}). *)

val checkpoint_snapshot :
  t -> upto:int -> (string * string) list * Poe_ledger.Block.t list
(** The application rows and the retained ledger blocks as of the stable
    checkpoint [upto], anchor first (speculative writes above it reverted
    on a clone) — what a state-snapshot transfer ships. Empty lists in
    cost-only runs. *)

val install_snapshot :
  t -> upto:int -> rows:(string * string) list ->
  blocks:Poe_ledger.Block.t list -> unit
(** Replace the local application state and ledger with a transferred
    checkpoint (no-op on the state in cost-only runs); resets the undo log
    and the executed-digest bookkeeping to start from [upto]. *)

val threshold :
  t -> (Poe_crypto.Threshold.scheme * Poe_crypto.Threshold.signer) option
(** Real threshold-signature key material (materialized runs): protocols
    compute, combine and verify actual signature shares end-to-end. [None]
    in cost-only runs, where the crypto is charged but not computed. *)

val store : t -> Poe_store.Kv_store.t option
val chain : t -> Poe_ledger.Chain.t option
val executed_count : t -> int
(** Number of currently-executed (non-rolled-back) batches — O(1), for
    hot-loop progress checks. *)

val executed_digests : t -> (int * string) list
(** [(seqno, batch_digest)] of currently-executed (non-rolled-back)
    batches, oldest first: the full history since creation or the last
    installed snapshot, which the ledger prune does not touch. Tracked in
    both modes, used by tests to check agreement across replicas. *)

val iter_executed : t -> (int -> string -> unit) -> unit
(** Calls the function on the seqno and digest of every entry of
    {!executed_digests}, in the same order, without building the list. *)

(** {1 Audit observables}

    Sampled by the chaos safety auditor (and usable by any test) to check
    invariants mid-run. All three are tracked in both materialized and
    cost-only modes. *)

val stable_seqno : t -> int
(** Highest stable checkpoint this replica has installed ([-1] initially).
    Never decreases; entries at or below it must never change. *)

val snapshot_generation : t -> int
(** Incremented whenever a transferred checkpoint replaces the local
    bookkeeping — the auditor re-baselines its frozen prefix then, since
    history below the snapshot is legitimately gone. *)

val duplicate_executions : t -> int
(** Latched count of at-most-once violations observed on this replica: a
    request key that was executed while a previous live (non-rolled-back)
    execution of the same key existed. Always 0 on a correct protocol.
    With a state machine attached, [execute_batch] skips re-applying
    requests with a live execution (the exec-layer reply-cache rule), so
    this stays 0 by construction; the skips are counted separately. *)

val deduped_requests : t -> int
(** Requests whose operations were skipped by the exec-layer at-most-once
    rule: the same request key arrived in a second slot (typically a
    cross-view re-proposal racing the original) while the first execution
    was still live. The slot still commits and the batch digest is
    unchanged; only the state-machine application is suppressed. *)

val chain_block_hash : t -> seqno:int -> string option
(** Hash of the materialized ledger block at [seqno], if this replica
    keeps a chain and the block is present. Because each block hashes its
    predecessor, this digest certifies the whole executed prefix up to
    [seqno] — checkpoint votes built from it cannot stabilize two
    replicas onto divergent histories. *)
