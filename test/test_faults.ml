(* Fault-injection integration tests beyond simple crashes: lossy links,
   temporary partitions, loss+crash combinations, and recovery-machinery
   unit tests (checkpoint catch-up, snapshots) driven through real
   clusters. The paper's §II argues PoE stays safe under unreliable
   communication and live once the network stabilizes — these tests
   exercise exactly that. *)

module R = Poe_runtime
module Config = R.Config
module Ctx = R.Replica_ctx
module Stats = R.Stats
module Cluster = Poe_harness.Cluster
module Network = Poe_simnet.Network
module Engine = Poe_simnet.Engine
module P = Poe_core.Poe_protocol
module C = Cluster.Make (P)

let config ?(n = 4) ?(scheme = Config.Auth_mac) () =
  Config.make ~n ~batch_size:5 ~materialize:true ~replica_scheme:scheme
    ~n_hubs:2 ~clients_per_hub:4 ~request_timeout:0.4 ~view_timeout:0.2
    ~checkpoint_period:8 ()

let build ?(loss = 0.0) ?(measure = 3.0) cfg =
  C.build
    { (Cluster.default_params ~config:cfg) with loss; warmup = 0.4; measure }

(* ------------------------------------------------------------------ *)
(* Message loss                                                        *)

let test_poe_under_light_loss () =
  (* 2% of all messages vanish. Client retransmission, checkpoint votes
     and state transfer must keep the cluster both safe and live. *)
  let c = build ~loss:0.02 (config ()) in
  C.run c;
  Alcotest.(check bool) "safety under loss" true (C.committed_prefix_agrees c);
  Alcotest.(check bool) "liveness under loss" true
    (Stats.completed_total c.C.stats > 50)

let test_poe_under_heavy_loss () =
  (* 15% loss: expect spurious view changes and plenty of recovery work,
     but never divergence. *)
  let c = build ~loss:0.15 ~measure:4.0 (config ()) in
  C.run c;
  Alcotest.(check bool) "safety under heavy loss" true
    (C.committed_prefix_agrees c);
  Alcotest.(check bool) "some progress under heavy loss" true
    (Stats.completed_total c.C.stats > 10)

let test_loss_plus_backup_crash () =
  let c = build ~loss:0.05 ~measure:4.0 (config ~n:7 ()) in
  C.crash_replica c 6 ~at:0.5;
  C.run c;
  Alcotest.(check bool) "safety" true (C.committed_prefix_agrees c);
  Alcotest.(check bool) "liveness" true (Stats.completed_total c.C.stats > 30)

(* ------------------------------------------------------------------ *)
(* Partitions                                                          *)

let isolate net ~node ~n_nodes =
  for peer = 0 to n_nodes - 1 do
    if peer <> node then begin
      Network.block_link net ~src:node ~dst:peer;
      Network.block_link net ~src:peer ~dst:node
    end
  done

let test_partitioned_backup_catches_up () =
  (* Cut one backup off for a second; after healing, checkpoint evidence
     must pull it back level (incremental transfer or snapshot). *)
  let cfg = config () in
  let c = build ~measure:4.0 cfg in
  let n_nodes = cfg.Config.n + cfg.Config.n_hubs in
  Engine.schedule c.C.engine ~delay:1.0 (fun () ->
      isolate c.C.net ~node:2 ~n_nodes);
  Engine.schedule c.C.engine ~delay:2.0 (fun () ->
      Network.heal_partitions c.C.net);
  C.run c;
  Alcotest.(check bool) "safety across partition" true
    (C.committed_prefix_agrees c);
  let k2 = P.k_exec c.C.replicas.(2) in
  let k1 = P.k_exec c.C.replicas.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "partitioned replica caught up (k2=%d k1=%d)" k2 k1)
    true
    (k1 - k2 <= 24);
  Alcotest.(check bool) "cluster stayed live" true
    (Stats.completed_total c.C.stats > 100)

let test_partitioned_primary_triggers_view_change () =
  let cfg = config () in
  let c = build ~measure:4.0 cfg in
  let n_nodes = cfg.Config.n + cfg.Config.n_hubs in
  Engine.schedule c.C.engine ~delay:1.0 (fun () ->
      isolate c.C.net ~node:0 ~n_nodes);
  C.run c;
  Alcotest.(check bool) "safety" true (C.committed_prefix_agrees c);
  (* The isolated primary cannot serve; the rest must move on. *)
  let v = P.view_of c.C.replicas.(1) in
  Alcotest.(check bool) "survivors changed view" true (v >= 1);
  Alcotest.(check bool) "survivors serve clients" true
    (Stats.completed_total c.C.stats > 50)

(* ------------------------------------------------------------------ *)
(* Snapshot-based catch-up (exercised deliberately)                    *)

let test_snapshot_catchup_across_checkpoint_gc () =
  (* Keep a replica dark long enough that the others' retention is
     garbage-collected past it: only a full state snapshot can rescue it.
     Afterwards its KV store, ledger and execution horizon must match. *)
  let cfg = config () in
  let c = build ~measure:4.5 cfg in
  C.set_behavior c 0 (Ctx.Keep_in_dark [ 3 ]);
  C.run c;
  Alcotest.(check bool) "safety" true (C.committed_prefix_agrees c);
  let k3 = P.k_exec c.C.replicas.(3) and k1 = P.k_exec c.C.replicas.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "dark replica level again (k3=%d k1=%d)" k3 k1)
    true
    (k1 - k3 <= 24 && k3 > 50);
  (* Its materialized state matches a healthy replica's on the hot rows. *)
  let rows i =
    match Ctx.store (P.ctx c.C.replicas.(i)) with
    | Some store ->
        List.init 10 (fun k ->
            Poe_store.Kv_store.get store (Printf.sprintf "user%d" k))
    | None -> []
  in
  (* Compare at matching horizons only when equal. *)
  if k3 = k1 then
    Alcotest.(check bool) "stores agree row-for-row" true (rows 3 = rows 1)

(* ------------------------------------------------------------------ *)
(* The same faults against the baselines (safety only)                 *)

(* ------------------------------------------------------------------ *)
(* Byzantine flips mid-run: all five protocols must stay safe while
   replica 0 (the view-0 primary; HotStuff's every-fourth leader)
   equivocates or keeps a backup in the dark, and recover liveness once
   it turns honest again. An equivocated slot can never gather a full
   quorum on either digest, so the protocols must route around it (view
   change / pacemaker skip) without ever diverging. SBFT and Zyzzyva
   earn their place in this matrix with this PR's replica-driven view
   changes — a byzantine primary now costs them a failover, not the
   run. *)

let byzantine_safety (module X : R.Protocol_intf.S) name ?(scheme = Config.Auth_mac)
    behavior label =
  let test () =
    let module CC = Cluster.Make (X) in
    let cfg = config ~scheme () in
    let c =
      CC.build
        { (Cluster.default_params ~config:cfg) with warmup = 0.4; measure = 4.0 }
    in
    Engine.schedule c.CC.engine ~delay:1.0 (fun () ->
        CC.set_behavior c 0 behavior);
    Engine.schedule c.CC.engine ~delay:2.2 (fun () ->
        CC.set_behavior c 0 Ctx.Honest);
    CC.run c;
    Alcotest.(check bool) "committed prefixes agree" true
      (CC.committed_prefix_agrees c);
    Alcotest.(check bool) "progress despite byzantine replica" true
      (Stats.completed_total c.CC.stats > 10)
  in
  Alcotest.test_case (name ^ " " ^ label) `Slow test

let baseline_safety (module X : R.Protocol_intf.S) name =
  let test () =
    let module CC = Cluster.Make (X) in
    let cfg = config ~n:7 ~scheme:Config.Auth_threshold () in
    let c =
      CC.build
        { (Cluster.default_params ~config:cfg) with
          loss = 0.05;
          warmup = 0.4;
          measure = 3.0;
        }
    in
    CC.crash_replica c 5 ~at:0.7;
    CC.run c;
    Alcotest.(check bool) "safety under loss+crash" true
      (CC.committed_prefix_agrees c)
  in
  Alcotest.test_case (name ^ " loss+crash safety") `Slow test

let () =
  Alcotest.run "faults"
    [
      ( "loss",
        [
          Alcotest.test_case "poe at 2% loss" `Quick test_poe_under_light_loss;
          Alcotest.test_case "poe at 15% loss" `Slow test_poe_under_heavy_loss;
          Alcotest.test_case "loss + backup crash (n=7)" `Slow
            test_loss_plus_backup_crash;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "backup partitioned then heals" `Quick
            test_partitioned_backup_catches_up;
          Alcotest.test_case "primary partitioned -> view change" `Quick
            test_partitioned_primary_triggers_view_change;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "catch-up across checkpoint gc" `Quick
            test_snapshot_catchup_across_checkpoint_gc;
        ] );
      ( "baselines",
        [
          baseline_safety (module Poe_pbft.Pbft_protocol) "pbft";
          baseline_safety (module Poe_sbft.Sbft_protocol) "sbft";
          baseline_safety (module Poe_hotstuff.Hotstuff_protocol) "hotstuff";
        ] );
      ( "byzantine",
        [
          byzantine_safety (module P) "poe" Ctx.Equivocate "equivocating primary";
          byzantine_safety (module P) "poe"
            (Ctx.Keep_in_dark [ 1 ])
            "primary keeps backup dark";
          byzantine_safety
            (module Poe_pbft.Pbft_protocol)
            "pbft" Ctx.Equivocate "equivocating primary";
          byzantine_safety
            (module Poe_pbft.Pbft_protocol)
            "pbft"
            (Ctx.Keep_in_dark [ 1 ])
            "primary keeps backup dark";
          byzantine_safety
            (module Poe_hotstuff.Hotstuff_protocol)
            "hotstuff" ~scheme:Config.Auth_threshold Ctx.Equivocate
            "equivocating leader";
          byzantine_safety
            (module Poe_hotstuff.Hotstuff_protocol)
            "hotstuff" ~scheme:Config.Auth_threshold
            (Ctx.Keep_in_dark [ 1 ])
            "leader keeps backup dark";
          byzantine_safety
            (module Poe_sbft.Sbft_protocol)
            "sbft" ~scheme:Config.Auth_threshold Ctx.Equivocate
            "equivocating primary";
          byzantine_safety
            (module Poe_sbft.Sbft_protocol)
            "sbft" ~scheme:Config.Auth_threshold
            (Ctx.Keep_in_dark [ 1 ])
            "primary keeps backup dark";
          byzantine_safety
            (module Poe_zyzzyva.Zyzzyva_protocol)
            "zyzzyva" Ctx.Equivocate "equivocating primary";
          byzantine_safety
            (module Poe_zyzzyva.Zyzzyva_protocol)
            "zyzzyva"
            (Ctx.Keep_in_dark [ 1 ])
            "primary keeps backup dark";
        ] );
    ]
