(** Calls waiting in the event queue, each of one fixed function on four
    ints and a value, parked without a closure per call.

    A closure per pending call costs an allocation per message on the
    simulator's hottest paths (a network delivery, a replica's input and
    output jobs). Here a call instead takes a slot of a slab, whose thunk
    was built once, when the slot was, and serves every call that takes
    the slot. The slab is empty until the first call, so creating a
    parked set costs a few words; it doubles when full and shrinks again
    once the load that grew it is gone. *)

type 'a t

val create : (int -> int -> int -> int -> 'a -> unit) -> 'a t
(** [create run]: calls of [run]. *)

val park : 'a t -> int -> int -> int -> int -> 'a -> unit -> unit
(** [park t a b c d x] is a thunk that runs [run a b c d x] once, to be
    handed to {!Engine.schedule} or [Server.submit]. It must be run at
    most once: its slot is taken until then, and free again when [run]
    starts. The slot keeps [x] alive only until then. *)
