(** Wire messages.

    [t] is an {e extensible} variant: the runtime defines the client-facing
    constructors every protocol shares, and each protocol library adds its
    own replica-to-replica messages (PROPOSE, SUPPORT, ... for PoE;
    PRE-PREPARE, ... for PBFT; and so on). The network carries [t] values
    opaquely; wire sizes are passed explicitly at send time and follow the
    paper's reported sizes ({!Wire}). *)

type request = {
  hub : int;        (** client machine (network node id) the reply goes to *)
  client : int;     (** logical client on that machine *)
  rid : int;        (** per-client request number *)
  op : Poe_store.Kv_store.op option;
      (** the transaction; [None] in cost-only or zero-payload runs *)
  submitted : float;  (** client-side submit time, for latency accounting *)
}

type batch = {
  digest : string;  (** SHA-256 of the batch in materialized runs *)
  reqs : request array;
  mutable acks : (int * (int * int) list) list;
      (** the INFORM acks of [reqs] grouped per client machine, as
          {!Exec_response} carries them: [(hub, acks)] in the order the
          batch first names each hub. Built by the first replica that
          answers for the batch and shared by every other one, since the
          lists are immutable; [[]] until then. *)
}

type exec_entry = {
  e_seqno : int;
  e_view : int;  (** view in which the entry was certified/committed *)
  e_batch : batch;
}
(** One executed slot, as carried by state transfers and view-change
    summaries. *)

type t = ..

(** Client-to-replica and replica-to-client messages, shared by all
    protocols. *)
type t +=
  | Client_request of request
      (** one signed client request, sent to the (believed) primary *)
  | Client_request_bundle of request list
      (** several requests from one client machine, bundled on the wire the
          way real client machines coalesce packets; the primary's input
          threads still pay per-request costs *)
  | Client_forward of request
      (** a client's resend after timeout, broadcast to every replica, which
          forwards it to the primary (Fig. 3 discussion) *)
  | Checkpoint_vote of { seqno : int; digest : string }
      (** periodic checkpoint vote: nf matching votes make a seqno stable;
          f+1 votes above a replica's horizon trigger catch-up *)
  | State_request of { from_seqno : int }
      (** a replica left in the dark asks a peer for missing batches *)
  | State_transfer of { entries : exec_entry list }
  | State_snapshot of {
      upto : int;  (** the sender's stable checkpoint *)
      rows : (string * string) list;
          (** application state at [upto] (empty in cost-only runs) *)
      blocks : Poe_ledger.Block.t list;
          (** the ledger up to [upto] (empty in cost-only runs) *)
      entries : exec_entry list;
          (** retained batches above [upto], replayed normally *)
    }
      (** full checkpoint transfer, for a replica so far behind that
          incremental retransmission cannot reach it *)
  | Exec_response of {
      view : int;
      seqno : int;
      replica : int;
      batch_digest : string;
      result_digest : string;
      acks : (int * int) list;
          (** (client, rid) pairs from this hub's batch slice — the
              per-request INFORM messages of Fig. 3, coalesced per machine *)
    }

val request_key : request -> int
(** (hub, client, rid) packed into one immediate integer — globally unique
    identity of a request, cheap to hash (the protocols' per-request
    tables and {!Rid_table}'s exceptions are keyed by it). Assumes
    hub < 2^14, client < 2^19, rid < 2^30. *)

val batch_of_requests : materialize:bool -> request list -> batch
(** Build a batch; computes the real digest when materializing, or a cheap
    synthetic digest otherwise. *)

(** {1 Wire sizes}

    Byte sizes matching §IV: with batch size 100 and standard payload, a
    PROPOSE is 5400 B, a client-bound response 1748 B, and every other
    protocol message is about 250 B. *)

module Wire : sig
  val header : int
  (** 250 B: "other messages". *)

  val per_txn : int
  (** Marginal PROPOSE bytes per transaction. *)

  val propose : Config.t -> int
  (** Size of a full-batch proposal under the config's payload mode. *)

  val vote : int
  (** SUPPORT / PREPARE / COMMIT / CERTIFY / votes: 250 B. *)

  val response : Config.t -> per_reqs:int -> int
  (** A response bundle carrying [per_reqs] per-request INFORMs. *)

  val request : Config.t -> int
  (** One client request on the wire. *)

  val view_change : Config.t -> entries:int -> int
  (** VC-REQUEST size with [entries] certified log entries. *)
end
