module Kv_store = Poe_store.Kv_store
module Sha256 = Poe_crypto.Sha256

type request = {
  hub : int;
  client : int;
  rid : int;
  op : Kv_store.op option;
  submitted : float;
}

type batch = {
  digest : string;
  reqs : request array;
  mutable acks : (int * (int * int) list) list;
}

type exec_entry = { e_seqno : int; e_view : int; e_batch : batch }

type t = ..

type t +=
  | Client_request of request
  | Client_request_bundle of request list
  | Client_forward of request
  | Checkpoint_vote of { seqno : int; digest : string }
  | State_request of { from_seqno : int }
  | State_transfer of { entries : exec_entry list }
  | State_snapshot of {
      upto : int;
      rows : (string * string) list;
      blocks : Poe_ledger.Block.t list;
      entries : exec_entry list;
    }
  | Exec_response of {
      view : int;
      seqno : int;
      replica : int;
      batch_digest : string;
      result_digest : string;
      acks : (int * int) list;
    }

let request_key r = (((r.hub lsl 19) lor r.client) lsl 30) lor r.rid

let batch_of_requests ~materialize reqs =
  let reqs = Array.of_list reqs in
  Poe_prof.Prof.(bump ix_batches_built);
  Poe_prof.Prof.(bump_by ix_batched_requests (Array.length reqs));
  let digest =
    if materialize then begin
      (* SHA-256 over "hub.client.rid:op" for every request in order, fed
         piece by piece instead of formatting each line. *)
      let ctx = Sha256.init () in
      Array.iter
        (fun r ->
          Sha256.feed_int ctx r.hub;
          Sha256.feed ctx ".";
          Sha256.feed_int ctx r.client;
          Sha256.feed ctx ".";
          Sha256.feed_int ctx r.rid;
          Sha256.feed ctx ":";
          match r.op with Some op -> Kv_store.feed_op ctx op | None -> ())
        reqs;
      Sha256.finalize ctx
    end
    else
      (* Cost-only runs: a cheap but still collision-free-in-practice tag
         "b:hub.client.rid+count" derived from the identity of the first
         request. *)
      match Array.length reqs with
      | 0 -> "empty"
      | n ->
          let r = reqs.(0) in
          String.concat ""
            [ "b:"; string_of_int r.hub; "."; string_of_int r.client; ".";
              string_of_int r.rid; "+"; string_of_int n ]
  in
  { digest; reqs; acks = [] }

module Wire = struct
  let header = 250
  let per_txn = 52 (* 250 + 100*52 = 5450 =~ paper's 5400 B PROPOSE *)
  let response_base = 48 (* + per-request payload below *)

  let propose (cfg : Config.t) =
    match cfg.payload with
    | Config.Zero -> header
    | Config.Standard -> header + (cfg.batch_size * per_txn)

  let vote = header

  let response (cfg : Config.t) ~per_reqs =
    match cfg.payload with
    | Config.Zero -> header + (per_reqs * 8)
    | Config.Standard ->
        (* 1748 B per client response at batch 100 in the paper; we coalesce
           a hub's slice into one wire message of equivalent volume. *)
        header + (per_reqs * (response_base + 17))

  let request (cfg : Config.t) =
    match cfg.payload with
    | Config.Zero -> 64
    | Config.Standard -> 128

  let view_change (_cfg : Config.t) ~entries =
    header + (entries * (per_txn + 64))
end
