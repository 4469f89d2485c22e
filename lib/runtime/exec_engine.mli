(** In-order batch execution, shared by every protocol.

    Protocols decide *when* a batch may be executed (for PoE: after the
    view-commit; for PBFT: after the commit phase; ...) and [offer] it;
    this engine guarantees sequence-order execution on the single execute
    thread (Fig. 6), charges execution CPU, applies the batch to the
    materialized state (KV store, undo log, ledger) via {!Replica_ctx},
    sends the per-client INFORM/RESPONSE traffic coalesced per client
    machine, and reports progress back to the protocol. *)

type t

val create :
  ctx:Replica_ctx.t ->
  ?on_executed:(seqno:int -> batch:Message.batch -> result:string -> unit) ->
  ?respond:bool ->
  unit ->
  t
(** [respond] (default true): send {!Message.Exec_response} bundles to the
    hubs after executing (SBFT routes responses through its executor
    replica instead, so it disables this). *)

val offer :
  t -> seqno:int -> view:int -> batch:Message.batch ->
  proof:Poe_ledger.Block.proof -> unit
(** Declare the batch at [seqno] ready. Executes once every batch below it
    has executed; offering the same seqno twice is a no-op. [view] is
    stamped on responses. *)

val send_responses :
  t -> view:int -> seqno:int -> batch:Message.batch -> result_digest:string ->
  unit
(** Answer the clients of an executed batch: one {!Message.Exec_response}
    per client machine the batch names, in the order the batch first
    names each, carrying that machine's [(client, rid)] acks. Called after
    every execution when [respond] is set; SBFT's executor calls it
    itself. *)

val k_exec : t -> int
(** Highest executed sequence number ([-1] initially). *)

val executed_batch : t -> int -> Message.batch option
(** Batch executed at a given seqno, while retained (see {!gc_below}); used
    for state transfer to replicas left in the dark and for view-change
    summaries. *)

val executed_result : t -> int -> string option
(** Result digest of the batch executed at a seqno (what the INFORM carried
    to clients); used by Zyzzyva's local-commit check. *)

val executed_since : t -> int -> (int * int * Message.batch) list
(** [(seqno, view, batch)] entries with seqno strictly above the argument,
    ascending — the "E" summary of a VC-REQUEST (Fig. 5 line 4). *)

val was_executed : t -> Message.request -> bool
(** Whether this request was part of any currently-live executed batch —
    including batches already garbage-collected below the stable
    checkpoint (duplicate suppression for client re-forwards must outlive
    retention, or a straggling retransmission after a long partition would
    be executed twice). Rolled-back executions are forgotten, so their
    requests can run again. *)

val rollback_to : t -> seqno:int -> int
(** Revert executed batches above [seqno] (undo log + ledger + bookkeeping);
    returns the number reverted. Pending offers above the point are
    discarded. *)

val abandon_unexecuted : t -> unit
(** Discard every decision not yet applied to state: offers parked behind
    a sequence gap and jobs still queued on the execute lane. A view
    change must call this even when nothing rolls back — a batch
    certified in the dead view but stalled behind a lost predecessor is
    not part of the adopted prefix; if it stayed parked it would execute
    the moment the new view fills the gap, duplicating requests the new
    primary re-proposes. *)

val force_adopt :
  t -> seqno:int -> view:int -> batch:Message.batch ->
  proof:Poe_ledger.Block.proof -> unit
(** Execute this batch immediately as seqno (used when adopting a new-view
    prefix or a state transfer: ordering was already established).
    Executes synchronously without charging CPU — recovery-path cost is
    dominated by the view-change messages, which {e are} charged. *)

val adopt_snapshot :
  t -> upto:int -> rows:(string * string) list ->
  blocks:Poe_ledger.Block.t list -> unit
(** Install a transferred checkpoint: the replica fast-forwards to
    [upto] — application state and ledger replaced, all execution
    bookkeeping reset, pending offers above the point discarded. Only
    meaningful when [upto > k_exec]. *)

val gc_below : t -> seqno:int -> unit
(** Drop retained batches at or below [seqno] (after a stable checkpoint). *)

val retained : t -> int
(** Executed batches still retained (not yet garbage-collected). *)

val stable : t -> int
(** Last stable checkpoint seqno ([-1] initially). *)

val set_stable : t -> int -> unit
