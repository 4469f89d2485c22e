(** Primary-side request intake: batching and the out-of-order window.

    Mirrors ResilientDB's batch-threads (§III): incoming client requests are
    queued; batch-threads close a batch when it reaches the configured size
    (or when [batch_delay] expires on a partial batch) and hand it to the
    protocol, which assigns it the next sequence number. The watermark
    window caps how many sequence numbers may be in flight at once — with
    out-of-order processing disabled the window is 1, which is exactly the
    sequential regime of Fig. 9(k,l).

    Duplicate suppression: a request key that was already proposed is
    dropped, so client timeout-driven re-forwards do not execute twice. *)

type t

val create :
  ctx:Replica_ctx.t -> on_batch:(Message.batch -> unit) -> unit -> t

val add_request : t -> Message.request -> unit
(** Enqueue a client request (charges batch-thread CPU; duplicates are
    dropped). *)

val seqno_closed : t -> unit
(** A consensus slot completed (executed or abandoned); frees a window
    slot and may trigger the next batch. *)

val reset_window : t -> unit
(** Zero the in-flight count (a new primary starts a fresh window: slots
    opened in an abandoned view never close). *)

val in_flight : t -> int
val queued : t -> int

val drain_pending : t -> Message.request list
(** Remove and return every queued request (used by a new primary after a
    view change to re-propose the backlog). *)

val already_proposed : t -> Message.request -> bool

val mark_proposed : t -> Message.request -> unit
(** Record the request's key as already proposed without enqueueing it.
    A new primary adopting slots still in flight in its view (e.g.
    PBFT's re-proposed prepared batches) marks their requests so a
    client retransmission arriving before the slot re-commits — while
    [Exec.was_executed] is still false — is not proposed a second time
    at a fresh sequence number. *)
