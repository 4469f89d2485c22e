(** Run configuration: cluster size, batching, authentication scheme,
    pipelining, client population, and timeouts.

    Defaults follow the paper's standard setup (§IV "Configuration and
    Benchmarking"): batch size 100, out-of-order processing on, standard
    payload, 3 s timeouts, clients spread over 16 machines. *)

type auth_scheme =
  | Auth_none       (** no authentication (Fig. 8 "None") *)
  | Auth_mac        (** pairwise MACs (CMAC+AES in the paper) *)
  | Auth_digital    (** per-identity digital signatures (ED25519) *)
  | Auth_threshold  (** threshold signature shares (BLS) *)

type payload =
  | Standard  (** PROPOSE carries the real batch (5400 B at batch 100) *)
  | Zero      (** zero-payload mode: dummy execution, small messages *)

type t = {
  n : int;  (** replicas *)
  batch_size : int;
  payload : payload;
  replica_scheme : auth_scheme;
      (** how replica-to-replica messages are authenticated *)
  client_scheme : auth_scheme;
      (** how clients sign requests (the paper always uses DS here) *)
  out_of_order : bool;
      (** primary proposes seqno k+1 before consensus on k finishes *)
  window : int;
      (** watermark window: max seqnos in flight when out-of-order *)
  checkpoint_period : int;  (** checkpoint every this many seqnos *)
  request_timeout : float;  (** client-side timeout, seconds (paper: 3 s) *)
  view_timeout : float;
      (** replica-side base timeout δ before suspecting the primary *)
  batch_delay : float;
      (** max time a batch-thread waits before closing a partial batch *)
  client_bundle_delay : float;
      (** how long a client machine coalesces outgoing requests into one
          wire bundle *)
  n_hubs : int;  (** client machines (paper: 16) *)
  clients_per_hub : int;  (** logical clients per machine *)
  materialize : bool;
      (** when true, replicas run the real KV store, undo log and ledger;
          when false (performance runs) execution is cost-only *)
  seed : int;
}

val make :
  ?batch_size:int ->
  ?payload:payload ->
  ?replica_scheme:auth_scheme ->
  ?client_scheme:auth_scheme ->
  ?out_of_order:bool ->
  ?window:int ->
  ?checkpoint_period:int ->
  ?request_timeout:float ->
  ?view_timeout:float ->
  ?batch_delay:float ->
  ?client_bundle_delay:float ->
  ?n_hubs:int ->
  ?clients_per_hub:int ->
  ?materialize:bool ->
  ?seed:int ->
  n:int ->
  unit ->
  t
(** Paper defaults; [n] is required. @raise Invalid_argument if [n < 4]. *)

val f : t -> int
(** Tolerated faults: [(n - 1) / 3]. *)

val nf : t -> int
(** Non-faulty count assumed by quorums: [n - f]. *)

val total_clients : t -> int

val primary_of_view : t -> int -> int
(** [view mod n], the paper's rotation rule. *)

val pp : Format.formatter -> t -> unit
