(** Fault schedules: the deterministic "what goes wrong when" script a
    chaos run executes against a cluster.

    A schedule is a time-sorted list of entries; every entry is a single,
    independently removable action (the unit the minimizer deletes). All
    times are simulated seconds from engine start. Episode-like faults
    (bursty loss, latency surges) carry their end time and any randomness
    they need — a dwell seed for the Gilbert–Elliott channel — inside the
    action, so replaying a printed schedule byte-for-byte reproduces the
    run without reference to the generator that built it. *)

type byz =
  | Equivocate
  | Keep_in_dark of int list  (** victims skipped when proposing *)
  | Silent

type action =
  | Crash of int
      (** fail-pause (Jepsen SIGSTOP): the replica stops sending and
          receiving but keeps state and timers *)
  | Recover of int
  | Block_link of { src : int; dst : int }  (** directed link cut *)
  | Unblock_link of { src : int; dst : int }
  | Partition of int list
      (** isolate this replica group from every other node, including the
          client hubs, in both directions *)
  | Heal  (** lift all partitions and link cuts *)
  | Loss_burst of {
      loss_bad : float;  (** drop probability while the channel is Bad *)
      mean_good : float;  (** mean dwell in the Good state, seconds *)
      mean_bad : float;
      until : float;  (** absolute end time; base loss is then restored *)
      seed : int;  (** dwell-sampling seed, making the episode replayable *)
    }  (** Gilbert–Elliott bursty loss applied to the whole network *)
  | Latency_surge of { factor : float; until : float }
      (** multiply every link's propagation delay until [until] *)
  | Set_byzantine of { replica : int; byz : byz }
  | Restore_honest of int

type entry = { at : float; action : action }
type t = entry list

val sort : t -> t
(** Stable sort by [at]; generation order breaks ties, so schedules print
    identically across runs of the same seed. *)

val pp_action : Format.formatter -> action -> unit

val pp : Format.formatter -> t -> unit
(** One entry per line, fixed-precision times: the printout is the
    schedule's canonical, byte-stable form. *)

val to_string : t -> string

val validate : n:int -> t -> (unit, string) result
(** Structural checks: replica ids in range, probabilities in [0,1),
    positive dwells and factors, non-negative times, sorted order. *)
