(** PoE wire messages (Fig. 3 of the paper), as extensions of the
    runtime's {!Poe_runtime.Message.t}, and the view-change summary of
    Fig. 5. The VC-REQUEST and NV-PROPOSE messages that carry it come from
    {!Poe_runtime.View_change.Make}; checkpoint and state-transfer messages
    are the shared runtime ones. *)

module Message = Poe_runtime.Message

type vc_payload = {
  from_view : int;  (** the view being abandoned *)
  exec_upto : int;  (** requester's last executed seqno *)
  entries : Message.exec_entry list;
      (** consecutive executed entries above the requester's stable
          checkpoint, ascending — each is the paper's
          (CERTIFY(⟨h⟩, w, k), ⟨T⟩c) pair: certificate plus transactions *)
}

type Message.t +=
  | Propose of { view : int; seqno : int; batch : Message.batch }
      (** primary → all: PROPOSE(⟨T⟩c, v, k) *)
  | Support of {
      view : int;
      seqno : int;
      digest : string;
      share : Poe_crypto.Threshold.share option;
          (** real signature share in materialized runs *)
    }
      (** backup → primary (threshold-signature variant): SUPPORT(s⟨h⟩i) *)
  | Support_all of { view : int; seqno : int; digest : string }
      (** backup → all (MAC variant, Appendix A) *)
  | Certify of {
      view : int;
      seqno : int;
      digest : string;
      signature : string option;  (** serialized combined TS when real *)
    }
      (** primary → all: CERTIFY(⟨h⟩, v, k) *)

val support_digest : view:int -> seqno:int -> batch_digest:string -> string
(** h := D(k || v || ⟨T⟩c) — the value signed by SUPPORT shares. *)
