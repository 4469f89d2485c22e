(** A client machine hosting many logical clients (the paper runs 320k
    clients on 16 machines).

    Each logical client keeps one request outstanding: submit, wait for a
    quorum of matching responses, record latency, submit the next (a closed
    loop, which is how the paper's client machines saturate the system).
    Outgoing requests are coalesced into wire bundles per machine; request
    timeouts are swept periodically rather than per-request so 300k
    outstanding requests do not mean 300k timers.

    Protocol specifics are injected through {!hooks}: the completion quorum,
    where fresh requests go, and optional overrides for timeout behaviour
    (Zyzzyva's client-driven commit phase) and extra client-side messages. *)

type t

type request_state = {
  req : Message.request;
  mutable responses : (int * (int * int * string)) list;
      (** replica id -> (view, seqno, result digest) *)
  mutable first_sent : float;
  mutable retries : int;
  mutable next_deadline : float;
      (** when the next retransmission fires: exponential backoff (doubling
          per retry, capped at 64x) with up to 25% seeded jitter per arm,
          so lossy runs do not degenerate into synchronized storms *)
}

type send_mode =
  | To_primary  (** send to the believed current primary *)
  | To_all      (** broadcast every request to all replicas (rotating-leader
                    protocols) *)

type hooks = {
  quorum : int;
      (** distinct replicas with matching (seqno, result digest) needed
          before the client considers the request executed *)
  send_mode : send_mode;
  on_timeout : (t -> request_state -> unit) option;
      (** [None]: the default recovery — forward the request to all replicas
          (Fig. 3's client recovery). [Some f]: protocol-specific (e.g.
          Zyzzyva's commit certificate). *)
  on_message : (t -> src:int -> Message.t -> bool) option;
      (** first crack at incoming messages; return [true] if consumed *)
}

val create :
  hub:int ->
  config:Config.t ->
  engine:Poe_simnet.Engine.t ->
  net:Message.t Poe_simnet.Network.t ->
  stats:Stats.t ->
  rng:Poe_simnet.Rng.t ->
  workload:Poe_store.Ycsb.t option ->
  hooks:hooks ->
  unit ->
  t
(** [workload = None] submits content-free requests (cost-only runs). *)

val start : t -> unit
(** Kick off all logical clients (submissions staggered over a few ms). *)

val on_network_message : t -> src:int -> Message.t -> unit
(** Wire this as the hub's network handler. *)

val hub_index : t -> int
val node_id : t -> int

val believed_view : t -> int

val outstanding : t -> int
(** Requests sent and not yet completed; O(1). Each logical client has at
    most one. *)

val completed : t -> int
(** Requests completed at this hub (all time). *)

val oldest_outstanding_age : t -> now:float -> float
(** Seconds since the oldest still-unanswered request was first sent
    (0 with nothing outstanding) — the heartbeat sampler's
    starvation indicator: it keeps growing exactly when some client is
    stuck behind a stalled cluster. O(clients per hub); heartbeat-rate
    only. *)

(** {1 For protocol hooks} *)

val config : t -> Config.t
val now : t -> float

val broadcast_replicas : t -> bytes:int -> Message.t -> unit

val complete : t -> request_state -> unit
(** Mark a request executed: records latency, retires it, and lets the
    logical client submit its next request. Idempotent per request. *)

val matching_responses : request_state -> int * (int * int * string) option
(** Size and witness of the largest agreeing response set. *)

val forward_to_all : t -> request_state -> unit
(** The default timeout recovery, exposed so custom hooks can fall back to
    it. *)

val pause : t -> unit
(** Stop submitting new requests (used to drain at the end of a run). *)
