(** SBFT baseline (Golan Gueta et al.): Zyzzyva's safer twin-path
    successor, linearized with threshold signatures and collector/executor
    replicas.

    Fast path (five linear phases): the primary PRE-PREPAREs; every replica
    sends a signature share to the {e collector}; with shares from {b all}
    n replicas the collector broadcasts a full commit proof; replicas
    execute, send execution shares to the {e executor}; the executor
    aggregates f+1 and sends the single aggregate response to clients (and
    all replicas). A client therefore needs just one response.

    Slow path: if the collector times out with only nf shares, two extra
    linear phases run (sign-state + final proof) before execution — the
    twin-path switch the paper measures under a single backup failure.

    Roles are view-relative: primary is [view mod n], with the collector
    and executor the next two replicas (the paper recommends distinct
    roles, §IV-A) — rotating all three with the view restores liveness
    whichever of them fails.

    View change: the standard certificate-carrying protocol the original
    describes as "no less expensive than PBFT" (their Fig. 10 skips
    measuring it). Replica suspicion comes from {!Poe_runtime.Recovery}
    watch timeouts; view-change summaries carry the executed suffix above
    the stable checkpoint plus two certificate strengths per in-flight
    slot — {e certified} (a commit proof was seen; any slow-path commit
    leaves at least one honest certified witness in every nf-summary set)
    and {e shared} (this replica signed a share; a fast-path commit needs
    all n, so f+1 matching shared claims outnumber the ≤ f forgeable
    conflicts). The new primary adopts the longest executed prefix,
    re-proposes every slot a certificate supports, and null-fills the
    gaps. Since SBFT execution is proof-gated there is never anything to
    roll back. *)

include Poe_runtime.Protocol_intf.S

(** {1 Introspection for tests and fault-injection} *)

val view_of : replica -> int
val k_exec : replica -> int
val stable_seqno : replica -> int

val force_suspect : replica -> unit
(** Make this replica suspect the current primary immediately (as if its
    request timer expired) — lets tests drive view-changes without waiting
    for simulated timeouts. *)
