(* A replicated bank on top of PoE, showing why *speculative* execution
   needs safe rollback: a byzantine primary crashes mid-stream, the view
   change adopts the longest certified prefix, and any account mutation
   that was executed speculatively but never committed is reverted — no
   replica's books diverge.

     dune exec examples/bank.exe

   The "bank" is the replicated KV store: account balances are rows, a
   transfer is an Update writing the new balance (the domain the paper's
   intro motivates: resilient transaction processing). *)

module R = Poe_runtime
module Config = R.Config
module Ctx = R.Replica_ctx
module Kv = Poe_store.Kv_store
module Cluster = Poe_harness.Cluster
module P = Poe_core.Poe_protocol
module PoE = Cluster.Make (P)

let () =
  let config =
    Config.make ~n:4 ~batch_size:5 ~materialize:true
      ~replica_scheme:Config.Auth_mac ~n_hubs:2 ~clients_per_hub:8
      ~request_timeout:0.4 ~view_timeout:0.2 ()
  in
  let params =
    { (Cluster.default_params ~config) with warmup = 0.2; measure = 3.0 }
  in
  let cluster = PoE.build params in

  (* The primary of view 0 turns byzantine at t=0.8s: it stops proposing
     (Example 3, case 3) — requests pile up, replicas suspect it, and the
     view-change elects replica 1. *)
  Poe_simnet.Engine.schedule cluster.PoE.engine ~delay:0.8 (fun () ->
      Format.printf "t=0.8s: primary stops proposing (byzantine)@.";
      PoE.set_behavior cluster 0 Ctx.Stop_proposing);
  PoE.run cluster;

  Format.printf "@.after the run:@.";
  Array.iteri
    (fun i replica ->
      Format.printf "  replica %d: view=%d executed=%d rolled-back-safe=%b@." i
        (P.view_of replica) (P.k_exec replica + 1)
        (match Ctx.chain (P.ctx replica) with
        | Some chain -> Poe_ledger.Chain.verify chain = Ok ()
        | None -> false))
    cluster.PoE.replicas;

  (* The books: every live replica holds identical balances for the hot
     accounts, even though some executed transactions speculatively under
     the byzantine primary and had to revert during the view change. *)
  let balances replica =
    let ctx = P.ctx replica in
    match Ctx.store ctx with
    | Some store ->
        List.init 5 (fun i -> Kv.get store (Printf.sprintf "user%d" i))
    | None -> []
  in
  let reference = balances cluster.PoE.replicas.(1) in
  let all_agree =
    List.for_all
      (fun i -> balances cluster.PoE.replicas.(i) = reference)
      [ 1; 2; 3 ]
  in
  Format.printf "  hot-account balances identical on all live replicas: %b@."
    all_agree;
  Format.printf "  requests completed by clients: %d@."
    (R.Stats.completed_total cluster.PoE.stats);
  if not all_agree then exit 1
