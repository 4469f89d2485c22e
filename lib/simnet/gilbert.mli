(** Gilbert–Elliott bursty-loss channel: a two-state Markov on/off model.

    Real networks do not lose packets independently — losses cluster in
    bursts (congested queues, flapping links). The classic Gilbert–Elliott
    model captures this with two states: [Good] (low or zero loss) and
    [Bad] (high loss), each held for an exponentially distributed dwell
    time. The chaos engine drives one of these per loss episode, pushing
    the current state's loss probability into {!Network.set_loss} at every
    transition, so a 10%-average-loss episode arrives as punishing bursts
    rather than a gentle independent trickle. *)

type state = Good | Bad

type t

val create :
  ?loss_good:float ->
  loss_bad:float ->
  mean_good:float ->
  mean_bad:float ->
  unit ->
  t
(** A channel starting in [Good]. [loss_good] (default 0) and [loss_bad]
    are per-message loss probabilities in [0, 1); [mean_good]/[mean_bad]
    are mean dwell times in seconds (must be positive). *)

val state : t -> state

val loss : t -> float
(** Loss probability of the current state. *)

val dwell : t -> Rng.t -> float
(** Sample how long the channel stays in the current state (exponential
    with that state's mean). *)

val flip : t -> unit
(** Transition to the other state. *)

val pp : Format.formatter -> t -> unit
