(** A min-heap of timestamped events, the core of the discrete-event
    engine. Ties on time are broken by insertion order, so execution is
    fully deterministic. Pushing and popping allocate nothing beyond the
    occasional doubling of the backing arrays. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit

val pop_min : 'a t -> 'a
(** Remove the earliest event and return its payload. The queue keeps no
    reference to it afterwards.
    @raise Invalid_argument when the queue is empty. *)

val min_time : 'a t -> float
(** Time of the earliest event, or [infinity] when the queue is empty. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, or [None] when empty. *)

val peek_time : 'a t -> float option
(** Time of the earliest event, or [None] when empty. Allocates; the
    engine uses {!min_time}. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Drop every pending event and reset the insertion counter, keeping the
    backing arrays so a reused queue does not regrow from scratch. After
    [clear] the queue behaves exactly like a fresh one. *)
