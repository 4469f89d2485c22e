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

let support_digest ~view ~seqno ~batch_digest =
  String.concat "" [ string_of_int seqno; "|"; string_of_int view; "|"; batch_digest ]
