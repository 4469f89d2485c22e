module Message = Poe_runtime.Message

type vc_payload = {
  from_view : int;
  exec_upto : int;
  entries : Message.exec_entry list;
}

type Message.t +=
  | Propose of { view : int; seqno : int; batch : Message.batch }
  | Support of {
      view : int;
      seqno : int;
      digest : string;
      share : Poe_crypto.Threshold.share option;
    }
  | Support_all of { view : int; seqno : int; digest : string }
  | Certify of {
      view : int;
      seqno : int;
      digest : string;
      signature : string option;
    }
  | Vc_request of { payload : vc_payload }
  | Nv_propose of { new_view : int; vcs : (int * vc_payload) list }
  | Nv_request of { view : int }

let support_digest ~view ~seqno ~batch_digest =
  String.concat "" [ string_of_int seqno; "|"; string_of_int view; "|"; batch_digest ]

let entries_consecutive entries =
  let rec go = function
    | [] | [ _ ] -> true
    | (a : Message.exec_entry) :: (b :: _ as rest) ->
        b.Message.e_seqno = a.Message.e_seqno + 1 && go rest
  in
  go entries

let vc_entry_bytes = Message.Wire.per_txn + 64
