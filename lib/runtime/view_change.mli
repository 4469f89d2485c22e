(** The view change every primary-backup protocol here shares (paper
    §II-C3, Fig. 5), as one skeleton plus a per-protocol certificate.

    The skeleton is a fixed state machine:

    + {b halt}: a replica that suspects the primary stops the normal case,
      broadcasts a signed summary of its state (its {e certificate}) for
      [from_view] and arms an NV deadline;
    + {b join}: f+1 distinct requests for the current view prove some
      non-faulty replica saw a failure, so the replica joins;
    + {b gather}: the primary of [from_view + 1] waits for nf valid
      certificates, takes the first nf by sender id and broadcasts them as
      the NV-PROPOSE;
    + {b install}: every replica checks the NV-PROPOSE (sent by the new
      view's primary, at least nf certificates, distinct senders, each one
      valid), runs the protocol's adopt rule and enters the new view;
    + {b back off}: with no NV in time the replica suspects the next
      primary too. The deadline is [view_timeout · 2^min(round, 6)] for
      the [round]-th consecutive view change, so cascades through faulty
      successors slow down exponentially (Theorem 7); installing a view
      resets [round] to 0.

    Only three things differ between protocols, and {!CERTIFICATE} takes
    exactly those: the certificate (what a summary carries, its wire size
    and validity), the adopt rule (what to keep from the nf summaries),
    and what to do when the normal case halts. The functions between
    {!install} and {!CERTIFICATE} are the building blocks the four adopt
    rules share. HotStuff's pacemaker is a different design and does not
    use this module. *)

type status = Active | In_view_change of int  (** the view being left *)

type 'c t = private {
  ctx : Replica_ctx.t;
  name : string;
      (** protocol name: the trace category of the view-change
          instants *)
  mutable view : int;  (** the installed view *)
  mutable status : status;
  store : (int, (int, 'c) Hashtbl.t) Hashtbl.t;
      (** from_view -> sender -> certificate *)
  mutable round : int;  (** consecutive view changes (backoff exponent) *)
  mutable nv_deadline : float;  (** waiting for an NV-PROPOSE until then *)
  mutable nv_sent_for : int;  (** highest view this replica NV-proposed *)
  mutable last_nv : (int * (int * 'c) list) option;
      (** the NV-PROPOSE that installed [view], kept for retransmission *)
}
(** One replica's view-change state over certificates of type ['c].
    Read-only outside this module. *)

type Message.t +=
  | Nv_request of { view : int }
        (** a replica that sees traffic for a view it never entered asks
            the sender to retransmit that view's NV-PROPOSE *)

val create : Replica_ctx.t -> name:string -> 'c t
(** View 0, active. *)

val in_view_change : 'c t -> bool

val active_in : 'c t -> int -> bool
(** [active_in t v]: the normal case of view [v] is running here. *)

val entries_consecutive : upto:int -> Message.exec_entry list -> bool
(** Certificate validity shared by every protocol: the executed entries
    of a summary form a consecutive seqno run that, when not empty, ends
    at the summary's [exec_upto] ([upto]). Adopt rules rank summaries by
    [exec_upto] and Zyzzyva derives each sender's stable checkpoint from
    it, so a summary may not claim more (or less) than its entries show. *)

val request_nv : 'c t -> src:int -> view:int -> unit
(** Call on traffic for [view] from [src]: if [view] is beyond ours, ask
    [src] to retransmit the NV-PROPOSE (it may have been lost). *)

val install : 'c t -> new_view:int -> (int * 'c) list -> unit
(** The shared bookkeeping of entering [new_view]: set the view, go
    active, reset the backoff round, emit the [new_view] trace instant
    and counter, keep the NV for retransmission. Adopt rules call it
    exactly once, at the point their protocol enters the view. *)

(** {1 Building blocks of the adopt rules} *)

val longest : by:('c -> int) -> (int * 'c) list -> 'c option
(** The first certificate with the greatest [by] value. *)

val adopt_in_order : Exec_engine.t -> Message.exec_entry list -> unit
(** Force-adopt each entry that extends the executed prefix by one, in
    list order. *)

val reconcile :
  Exec_engine.t -> floor:int -> upto:int -> Message.exec_entry list -> unit
(** Speculative adoption (PoE and Zyzzyva): roll back to [max upto floor],
    abandon unexecuted slots, roll back further to just before the first
    entry whose batch differs from ours (never below [floor], the stable
    checkpoint), then {!adopt_in_order}. *)

val highest_view :
  above:int -> Message.exec_entry list list ->
  (int, Message.exec_entry) Hashtbl.t
(** Per seqno above [above], the entry of the highest view (the first on
    ties): Castro-Liskov's choice of what to re-propose. *)

val claim : Pipeline.t -> Message.exec_entry list -> unit
(** Mark every request of these entries as proposed, so the new primary
    never gives one a second seqno. *)

val repropose :
  name:string -> new_view:int -> kmax:int -> upto:int ->
  (int, Message.exec_entry) Hashtbl.t ->
  propose:(Message.exec_entry -> unit) -> Pipeline.t -> unit
(** Certificate-carrying new primary (PBFT and SBFT): [propose] every slot
    [kmax + 1 .. upto] in order, filling slots with no re-proposal with an
    empty ["<name>-null-<seqno>"] batch, then mark every re-proposed
    request as proposed in the pipeline. *)

val resume_backlog :
  primary:bool -> exec:Exec_engine.t -> pipeline:Pipeline.t ->
  recovery:Recovery.t -> (unit -> unit) -> unit
(** After the adopt rule: a new primary resets its watermark window, runs
    the given re-proposal step, then proposes every watched request not
    yet executed; a backup re-forwards its watches instead. *)

(** {1 The skeleton} *)

(** What a protocol supplies. *)
module type CERTIFICATE = sig
  type replica
  type cert

  val state : replica -> cert t
  val from_view : cert -> int
  val size : cert -> int
  (** Log entries carried, for the wire size. *)

  val valid : cert -> bool
  val summarize : replica -> from_view:int -> cert
  (** This replica's certificate for leaving [from_view]. *)

  val halt : replica -> from_view:int -> unit
  (** Called when an active replica starts a view change, before its
      status changes. *)

  val adopt : replica -> new_view:int -> (int * cert) list -> unit
  (** The adopt rule, given nf valid certificates by distinct senders.
      Must call {!install}. *)
end

module Make (P : CERTIFICATE) : sig
  type Message.t +=
    | Vc_request of { payload : P.cert }
    | Nv_propose of { new_view : int; vcs : (int * P.cert) list }
          (** (sender, certificate) pairs *)

  val initiate_view_change : P.replica -> from_view:int -> unit
  (** Halt and broadcast a certificate for leaving [from_view], unless
      already asked for that view or beyond, or [from_view] is behind the
      installed view. *)

  val force_suspect : P.replica -> unit
  (** Suspect the current primary now, if active. *)

  val on_message : P.replica -> src:int -> Message.t -> unit
  (** Handles {!Vc_request}, {!Nv_propose} and {!Nv_request}; ignores
      every other message. *)
end
