(** PBFT baseline (Castro & Liskov), as implemented in the paper's
    evaluation: BFTSmart-style with ResilientDB's pipelining,
    multi-threading and batching.

    Normal case: PRE-PREPARE from the primary, then two all-to-all
    quadratic phases (PREPARE, COMMIT), all MAC-authenticated; execution
    after the commit quorum — non-speculative, so view-changes never roll
    back. Clients need only f+1 matching responses. The signature scheme
    for replica messages follows [config.replica_scheme] so Fig. 8's
    None/ED/CMAC sweep can be reproduced. *)

include Poe_runtime.Protocol_intf.S

(** {1 Wire messages} *)

type Poe_runtime.Message.t +=
  | Preprepare of { view : int; seqno : int; batch : Poe_runtime.Message.batch }
  | Prepare of { view : int; seqno : int; digest : string }
  | Commit of { view : int; seqno : int; digest : string }

val slot_digest : view:int -> seqno:int -> batch_digest:string -> string
(** The digest a slot's PREPAREs and COMMITs vote for. *)

(** {1 Introspection} *)

val view_of : replica -> int
val k_exec : replica -> int
val force_suspect : replica -> unit
