module Sha256 = Poe_crypto.Sha256

type proof =
  | No_proof
  | Threshold_sig of string
  | Vote_certificate of int list

type t = {
  height : int;
  seqno : int;
  view : int;
  batch_digest : string;
  prev_hash : string;
  proof : proof;
}

(* The proof is a replica-local witness and is deliberately not encoded:
   see block.mli. *)
let encode b =
  String.concat ""
    [ "h="; string_of_int b.height; "|k="; string_of_int b.seqno;
      "|v="; string_of_int b.view; "|d="; Sha256.to_hex b.batch_digest;
      "|p="; Sha256.to_hex b.prev_hash ]

(* [Sha256.digest (encode b)], fed piece by piece instead of formatting. *)
let hash b =
  let ctx = Sha256.init () in
  Sha256.feed ctx "h=";
  Sha256.feed_int ctx b.height;
  Sha256.feed ctx "|k=";
  Sha256.feed_int ctx b.seqno;
  Sha256.feed ctx "|v=";
  Sha256.feed_int ctx b.view;
  Sha256.feed ctx "|d=";
  Sha256.feed_hex ctx b.batch_digest;
  Sha256.feed ctx "|p=";
  Sha256.feed_hex ctx b.prev_hash;
  Sha256.finalize ctx

let genesis ~initial_primary =
  {
    height = 0;
    seqno = -1;
    view = 0;
    batch_digest = Sha256.digest (Printf.sprintf "genesis|primary=%d" initial_primary);
    prev_hash = String.make 32 '\000';
    proof = No_proof;
  }

let make ~prev ~seqno ~view ~batch_digest ~proof =
  {
    height = prev.height + 1;
    seqno;
    view;
    batch_digest;
    prev_hash = hash prev;
    proof;
  }

let pp fmt b =
  Format.fprintf fmt "block[h=%d k=%d v=%d d=%s..]" b.height b.seqno b.view
    (String.sub (Sha256.to_hex b.batch_digest) 0 8)
