(** One vote tally: which replica voted for which digest, and how many
    distinct replicas back each digest. A tally is created for a fixed
    cluster size [n]; a sender outside [\[0, n)] (a client hub, whose
    node ids are [n .. n+hubs-1]) is never counted. DESIGN.md ("Quorum
    tallies") lists the sites and which of them keep a replica's first
    vote ({!add}) or its last ({!replace}). *)

type t

val create : int -> t
(** [create n]: an empty tally over replicas [0 .. n-1]. *)

type outcome =
  | Added  (** [src] had not voted before *)
  | Duplicate  (** [src] had voted before *)
  | Out_of_range  (** [src] is not a replica id; nothing changed *)

val add : t -> src:int -> digest:string -> outcome
(** First vote wins: on [Duplicate] the earlier vote stands. *)

val replace : t -> src:int -> digest:string -> outcome
(** Last vote wins: on [Duplicate] [src]'s earlier vote, for whatever
    digest, is replaced by this one. *)

val find_or_create : ('k, t) Hashtbl.t -> 'k -> n:int -> t
(** The tally under [key], created for [n] replicas on first use: sites
    allocate one only when the first vote for its slot or round arrives. *)

val count : t -> string -> int
(** Number of replicas whose vote is [digest]. *)

val size : t -> int
(** Number of distinct replicas that voted, whatever their digests. *)

val signers : ?digest:string -> t -> int list
(** The replicas that voted (for [digest] only, when given), in ascending
    id order. *)

val best : t -> (string * int) option
(** A digest with the highest count, and that count; [None] before any
    vote. Ties go to the digest first voted for. *)
