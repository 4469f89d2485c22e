(** Simulated message-passing network between [n] numbered nodes.

    Models the parts of the paper's testbed that determine protocol
    performance: one-way propagation delay (per {!Latency}), per-node NIC
    bandwidth (outgoing messages serialize; a large PROPOSE keeps the
    primary's NIC busy — the effect behind the paper's zero-payload
    experiments), probabilistic message loss, link partitions, and node
    crashes.

    Channels are authenticated (the receiver learns the true [src]) and
    FIFO per (src, dst) when latency is constant; with jittery latency,
    reordering is possible, as in a real datacenter UDP mesh. Byzantine
    *content* is a protocol-layer concern: a faulty node may send whatever
    payloads it likes, but cannot spoof [src]. *)

type 'msg t

val create :
  engine:Engine.t ->
  n_nodes:int ->
  latency:Latency.t ->
  ?bandwidth_bytes_per_s:float option ->
  ?loss_probability:float ->
  unit ->
  'msg t
(** [bandwidth_bytes_per_s = None] (default) models an unconstrained NIC —
    used by the paper's §IV-I pure-message-delay simulation. *)

val n_nodes : _ t -> int
val engine : _ t -> Engine.t

val set_handler : 'msg t -> int -> (src:int -> bytes:int -> 'msg -> unit) -> unit
(** Install the delivery callback for a node. Must be set before messages
    addressed to that node arrive; deliveries to handler-less nodes are
    dropped silently (counted in [net.msgs_dropped] of {!Poe_prof.Prof}). *)

val send : 'msg t -> src:int -> dst:int -> bytes:int -> 'msg -> unit
(** Queue a message. [bytes] is the wire size used for NIC serialization
    and byte accounting; it does not need to match the in-memory payload. *)

val crash : _ t -> int -> unit
(** Silence a node: all its future sends are suppressed and messages
    addressed to it are dropped on arrival. In-flight messages it already
    sent still arrive (they are on the wire). *)

val recover : _ t -> int -> unit
val is_crashed : _ t -> int -> bool

val block_link : _ t -> src:int -> dst:int -> unit
(** Unidirectional partition of one link. *)

val unblock_link : _ t -> src:int -> dst:int -> unit
val heal_partitions : _ t -> unit

(** {1 Dynamic link quality}

    Chaos schedules mutate these mid-run: the global loss probability and
    a global latency multiplier (surges). Both take effect for messages
    sent after the call; in-flight messages are unaffected. *)

val set_loss : _ t -> float -> unit
(** Replace the global loss probability. Must be in [0, 1). *)

val loss : _ t -> float

val set_latency_factor : _ t -> float -> unit
(** Multiply every sampled one-way delay by this factor (default 1.0);
    models a cluster-wide latency surge. Must be positive. *)

val latency_factor : _ t -> float

(** {1 Accounting} *)

val sent_messages : _ t -> int
val sent_bytes : _ t -> int
(** This network's own totals, lossy drops included (the same figures
    as [Prof]'s [net.msgs_sent] and [net.bytes_sent], which sum over
    every network of the domain). *)
