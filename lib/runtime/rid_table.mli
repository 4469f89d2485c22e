(** Exact multiset of client requests, stored densely per client.

    The at-most-once bookkeeping of the execute path (which requests have
    a live execution, which were ever proposed) keeps one entry per
    request for the whole run. A closed-loop client's request numbers
    ([rid]s) are consecutive and execute in order, so each client's set is
    almost always one interval: this table keeps, per client slot
    [hub * clients_per_hub + client], an interval [\[base, lo)] of rids
    whose count is 1, and a small exceptions table, keyed by
    {!Message.request_key}, for every request whose count differs from
    that default (duplicates, holes left by a rollback, rids outside the
    interval). Requests of clients outside [n_hubs × clients_per_hub] live
    in the exceptions table only.

    Counts are exact: every query returns what a [(request_key, count)]
    hash table updated by the same operations would return. Extending a
    client's interval by its next rid — the common case — reads two ints,
    writes one, and neither hashes nor allocates. The per-client arrays
    grow by doubling on first use, never at {!create}. *)

type t

val create : Config.t -> t
(** Slots for the config's [n_hubs × clients_per_hub] clients. *)

val count : t -> Message.request -> int
(** Current multiplicity of the request; 0 when absent. *)

val mem : t -> Message.request -> bool
(** [count t r >= 1]. *)

val incr : t -> Message.request -> unit

val decr : t -> Message.request -> unit
(** Remove one occurrence; a no-op when the request is absent. *)

val add : t -> Message.request -> unit
(** Set semantics: make the request a member (count 1) if it is not. *)

val remove : t -> Message.request -> unit
(** Drop every occurrence (count 0). *)

val reset : t -> unit
(** Empty the table. *)
