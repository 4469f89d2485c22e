(** The Proof-of-Execution consensus protocol (the paper's contribution).

    Normal case (Fig. 3, three linear phases with threshold signatures;
    Appendix A gives the MAC variant with one all-to-all phase):

    + the primary PROPOSEs a batch as the k-th transaction of view v;
    + each backup SUPPORTs the first k-th proposal it receives (a signature
      share to the primary in the TS variant; an all-to-all broadcast in the
      MAC variant);
    + on nf supports the primary CERTIFYs; replicas then {e view-commit}
      and {e speculatively execute} in sequence order, informing clients
      directly — there is no commit phase and no twin path.

    A client holds a {e proof of execution} once nf identical INFORMs
    arrive. View-changes (Fig. 5) preserve exactly those requests
    (Proposition 5), rolling back any other speculatively executed
    transaction. Checkpoints bound view-change summaries and let replicas
    that were kept in the dark catch up via state transfer.

    The variant is selected by [config.replica_scheme]:
    [Auth_threshold] runs the TS variant, anything else the broadcast
    variant with that scheme's costs (paper ingredient I3: signature
    agnosticism). *)

include Poe_runtime.Protocol_intf.S

(** {1 Introspection for tests and fault-injection} *)

val view_of : replica -> int
val k_exec : replica -> int
val stable_seqno : replica -> int
val retained_batches : replica -> int

val force_suspect : replica -> unit
(** Make this replica suspect the current primary immediately (as if its
    request timer expired) — lets tests drive view-changes without waiting
    for simulated timeouts. *)
