(** Deterministic pseudo-random number generation (splitmix64).

    Every source of randomness in the simulator flows through an explicit
    [Rng.t] so a run is a pure function of its seed: identical seeds replay
    identical traces, which the test suite relies on. *)

type t

val create : int -> t
(** [create seed] — any integer seed is fine, including 0. *)

val split : t -> t
(** Derive an independent generator; used to give each replica/client its
    own stream so adding consumers does not perturb others. *)

val copy : t -> t

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> p:float -> bool
(** Bernoulli draw: [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
