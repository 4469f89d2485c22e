(** An append-only, hash-linked chain of {!Block}s — each replica's local
    copy of the immutable ledger.

    The execute-thread appends a block per executed batch (§III-A). Chains
    support truncation-free rollback *only* above the last checkpoint: PoE
    may revert speculatively executed batches during a view-change, which
    shortens the chain correspondingly.

    {b Anchor.} The oldest block a chain retains is its anchor: genesis at
    first, then, after {!prune_below}, the newest block at or below the
    prune point. Blocks older than the anchor are immutable and the
    anchor's hash commits to all of them, so a replica need not keep them
    in memory (a real one moves them to storage). {!length}, {!nth},
    {!blocks} and {!find_by_seqno} see the retained blocks only; heights
    keep counting from genesis. *)

type t

val create : initial_primary:int -> t
(** A chain holding only the genesis block. *)

val append :
  t -> seqno:int -> view:int -> batch_digest:string -> proof:Block.proof ->
  Block.t
(** Build, link, and append the next block; returns it. *)

val head : t -> Block.t
val length : t -> int
(** Number of retained blocks, anchor included. *)

val nth : t -> int -> Block.t option
(** Retained block at a given height. *)

val rollback_to_height : t -> int -> int
(** Drop blocks above the given height; returns how many were dropped.
    @raise Invalid_argument when the height is below the anchor's or
    above the head. *)

val rollback_to_seqno : t -> int -> int
(** Drop the blocks whose seqno is above the given one, walking from the
    head; returns how many were dropped.
    @raise Invalid_argument when that would drop the anchor. *)

val prune_below : t -> seqno:int -> unit
(** Make the newest block with [seqno <=] the given one the anchor,
    dropping every older block. No-op when no retained block is at or
    below it. Called at each stable checkpoint. *)

val verify : t -> (unit, string) result
(** Walk the retained blocks checking every hash link; [Error] pinpoints
    the first broken link. *)

val blocks : t -> Block.t list
(** The retained blocks, anchor first. *)

val find_by_seqno : t -> int -> Block.t option

val of_blocks : Block.t list -> (t, string) result
(** Rebuild a chain from transferred blocks, the first of which (genesis
    or an anchor) becomes the anchor; verifies every hash link after it.
    Used when installing a checkpoint snapshot. *)

val install : t -> Block.t list -> (unit, string) result
(** Replace this chain's contents with the transferred blocks (verified
    first); the in-place variant of {!of_blocks}. *)
