(** Zyzzyva baseline (Kotla et al.): the fastest possible fault-free path,
    bought with client-driven ordering.

    Fast path: the primary ORDER-REQs a batch; every replica executes it
    speculatively {e immediately} — no inter-replica voting at all — and
    answers the client. The client only accepts a request once {b all n}
    replicas answered identically, so a single crashed backup stalls every
    request until the client's timeout.

    Slow path (client-driven): on timeout with at least nf matching
    speculative responses, the client broadcasts a COMMIT certificate;
    replicas acknowledge with LOCAL-COMMIT and the client accepts after nf
    of those.

    View change: Zyzzyva's {e published} view change is unsafe (Abraham
    et al. 2017; "Revisiting EZBFT", PAPERS.md, catalogs the same traps
    for its successor), so we do not reproduce it. On suspicion —
    unserved watched requests, or client retries that persist for an
    already-executed request, the local symptom of an equivocating
    primary — replicas exchange signed local-history certificates. The
    new primary adopts a prefix per slot: a slot survives when f+1 of
    the nf histories carry the same batch (at most one batch can, and
    every fast-path completion does), or when it is covered by the
    highest acked commit certificate among the histories (slow-path
    completions). Uncertified speculative suffixes are rolled back
    through {!Poe_runtime.Exec_engine}, clamped at the stable
    checkpoint, with certified-but-unexecuted slots abandoned. *)

include Poe_runtime.Protocol_intf.S

(** {1 Introspection for tests and fault-injection} *)

val view_of : replica -> int
val k_exec : replica -> int
val stable_seqno : replica -> int

val force_suspect : replica -> unit
(** Make this replica suspect the current primary immediately (as if its
    request timer expired) — lets tests drive view-changes without waiting
    for simulated timeouts. *)
