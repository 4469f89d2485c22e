(** Blockchain blocks, as maintained by every ResilientDB replica (§III-A).

    A block [B_i = {k, d, v, H(B_{i-1})}] records the sequence number, the
    digest of the executed batch, the view, and the hash of the previous
    block. A block may also carry the *proof of acceptance* — in PoE, the
    threshold signature from the CERTIFY message — which the paper makes
    optional. The proof is kept as a witness but is not part of the hashed
    block (see {!hash}). *)

type proof =
  | No_proof
  | Threshold_sig of string
      (** serialized combined signature from the CERTIFY message *)
  | Vote_certificate of int list
      (** ids of the replicas whose matching votes certify the batch (the
          MAC-variant equivalent of a threshold signature) *)

type t = {
  height : int;         (** position in the chain; genesis is 0 *)
  seqno : int;          (** consensus sequence number of the batch *)
  view : int;           (** view in which the batch was committed *)
  batch_digest : string;(** SHA-256 of the batch of client requests *)
  prev_hash : string;   (** SHA-256 of the previous block *)
  proof : proof;
}

val genesis : initial_primary:int -> t
(** The genesis block contains the hash of the initial primary's identity —
    information every replica already has, so no communication is needed
    (§III-A). *)

val hash : t -> string
(** SHA-256 over the canonical serialization of the block: height, seqno,
    view, batch digest and previous hash — exactly the paper's block, and
    not the proof. Proofs are local to a replica: a slot adopted by state
    transfer or a new view carries [Vote_certificate []] where its peers
    hold a threshold signature, and a MAC certificate lists whichever
    supporters arrived first. Hashing them would give honest replicas that
    executed the same batches different hashes, so checkpoint votes, which
    carry the block hash, would never match. *)

val make :
  prev:t -> seqno:int -> view:int -> batch_digest:string -> proof:proof -> t

val encode : t -> string
(** Canonical serialization, excluding the proof: the specification of what
    {!hash} hashes. [hash b = Sha256.digest (encode b)], though {!hash}
    feeds the same bytes without building the string. *)

val pp : Format.formatter -> t -> unit
