(* Tests for the four baseline protocols (PBFT, Zyzzyva, SBFT, HotStuff):
   normal-case agreement and termination, their characteristic failure
   behaviours from the paper's evaluation, and a cross-protocol qcheck that
   random crash schedules never break prefix agreement. *)

module R = Poe_runtime
module Config = R.Config
module Ctx = R.Replica_ctx
module Stats = R.Stats
module Cluster = Poe_harness.Cluster

module Pbft = Poe_pbft.Pbft_protocol
module Zyzzyva = Poe_zyzzyva.Zyzzyva_protocol
module Sbft = Poe_sbft.Sbft_protocol
module Hotstuff = Poe_hotstuff.Hotstuff_protocol

module CP = Cluster.Make (Pbft)
module CZ = Cluster.Make (Zyzzyva)
module CS = Cluster.Make (Sbft)
module CH = Cluster.Make (Hotstuff)

let config ?(n = 4) ?(scheme = Config.Auth_mac) ?(request_timeout = 0.4) () =
  Config.make ~n ~batch_size:5 ~materialize:true ~replica_scheme:scheme
    ~n_hubs:2 ~clients_per_hub:4 ~request_timeout ~view_timeout:0.2
    ~checkpoint_period:8 ()

(* ------------------------------------------------------------------ *)
(* PBFT                                                                *)

let test_pbft_normal () =
  let c = CP.build { (Cluster.default_params ~config:(config ())) with
                     warmup = 0.4; measure = 2.0 } in
  CP.run c;
  Alcotest.(check bool) "progress" true (Stats.completed_total c.CP.stats > 100);
  Alcotest.(check bool) "agreement" true (CP.committed_prefix_agrees c);
  Array.iter
    (fun r -> Alcotest.(check int) "view 0" 0 (Pbft.view_of r))
    c.CP.replicas

(* Minor words a fault-free, cost-only PBFT n = 16 run allocates per
   delivered message, over its second half (the first grows the tables).
   A delivery and its input job allocate only the float boxes that times
   and costs cross module boundaries in; the limit is the value reached
   when the message path was made allocation-light, plus 4%. *)
let pbft_words_per_message () =
  Poe_obs.Trace.clear ();
  Poe_obs.Metrics.clear_current ();
  let config =
    Config.make ~n:16 ~replica_scheme:Config.Auth_mac ~payload:Config.Zero
      ~clients_per_hub:20 ~seed:3 ()
  in
  let c =
    CP.build { (Cluster.default_params ~config) with warmup = 0.1; measure = 0.1 }
  in
  CP.run c ~until:0.1;
  let delivered () =
    snd (Poe_prof.Prof.counters ()).(Poe_prof.Prof.ix_msgs_delivered)
  in
  let m0 = delivered () and w0 = Gc.minor_words () in
  CP.run c;
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int (delivered () - m0)

let test_pbft_message_words () =
  let words = pbft_words_per_message () and limit = 38.3 in
  if words > limit then
    Alcotest.failf "%.2f minor words per delivered message, at most %.2f"
      words limit

(* Replica 1 of a client-less n = 4 PBFT cluster (nf = 3), fed messages
   directly. It has accepted the pre-prepare of seqno 0, so its own
   PREPARE and the primary's pre-prepare are 2 of the 3 it needs, and
   COMMITs from replicas 0 and 2 are in hand: it executes seqno 0 as soon
   as one more PREPARE counts. *)
let pbft_backup_awaiting_prepare () =
  let config = Config.make ~n:4 ~n_hubs:1 ~clients_per_hub:1 () in
  let c =
    CP.build
      { (Cluster.default_params ~config) with autostart_clients = false }
  in
  let r = c.CP.replicas.(1) in
  let deliver ~src msg =
    Pbft.on_message r ~src msg;
    CP.run c ~until:(Poe_simnet.Engine.now c.CP.engine +. 0.05)
  in
  let batch =
    R.Message.batch_of_requests ~materialize:false
      [ { R.Message.hub = 0; client = 0; rid = 0; op = None; submitted = 0.0 } ]
  in
  let digest =
    Pbft.slot_digest ~view:0 ~seqno:0 ~batch_digest:batch.R.Message.digest
  in
  deliver ~src:0 (Pbft.Preprepare { view = 0; seqno = 0; batch });
  let prepare ~src digest =
    deliver ~src (Pbft.Prepare { view = 0; seqno = 0; digest })
  in
  List.iter
    (fun src -> deliver ~src (Pbft.Commit { view = 0; seqno = 0; digest }))
    [ 0; 2 ];
  (r, prepare, digest)

(* Node id n is the first client hub: its PREPARE is not a replica's. *)
let test_pbft_prepare_from_hub_ignored () =
  let r, prepare, digest = pbft_backup_awaiting_prepare () in
  prepare ~src:4 digest;
  Alcotest.(check int) "hub vote not counted" (-1) (Pbft.k_exec r);
  prepare ~src:3 digest;
  Alcotest.(check int) "replica vote counted" 0 (Pbft.k_exec r)

(* A replica's first PREPARE for a slot stands: a second one with another
   digest is ignored, whichever of the two matches. *)
let test_pbft_first_prepare_wins () =
  let r, prepare, digest = pbft_backup_awaiting_prepare () in
  prepare ~src:2 "other";
  prepare ~src:2 digest;
  Alcotest.(check int) "second prepare ignored" (-1) (Pbft.k_exec r);
  prepare ~src:3 digest;
  Alcotest.(check int) "third replica completes the quorum" 0 (Pbft.k_exec r)

let test_pbft_backup_crash () =
  let c = CP.build { (Cluster.default_params ~config:(config ())) with
                     warmup = 0.4; measure = 2.0 } in
  CP.crash_replica c 3 ~at:0.5;
  CP.run c;
  Alcotest.(check bool) "progress" true (Stats.completed_total c.CP.stats > 100);
  Alcotest.(check bool) "agreement" true (CP.committed_prefix_agrees c)

let test_pbft_primary_crash () =
  let c = CP.build { (Cluster.default_params ~config:(config ())) with
                     warmup = 0.4; measure = 2.5 } in
  CP.crash_replica c 0 ~at:0.8;
  CP.run c;
  Alcotest.(check bool) "agreement" true (CP.committed_prefix_agrees c);
  Alcotest.(check bool) "view changed" true (Pbft.view_of c.CP.replicas.(1) >= 1);
  Alcotest.(check bool) "live after view change" true
    (Stats.completed_total c.CP.stats > 100)

let test_pbft_no_rollback_ever () =
  (* PBFT executes only after the commit quorum, so even a view change
     leaves every ledger strictly growing: chain heights never regress.
     We verify chains are valid and the logs agree after a mid-run VC. *)
  let c = CP.build { (Cluster.default_params ~config:(config ())) with
                     warmup = 0.4; measure = 2.5 } in
  CP.crash_replica c 0 ~at:0.8;
  CP.run c;
  Array.iteri
    (fun i r ->
      if i > 0 then
        match Ctx.chain (Pbft.ctx r) with
        | Some chain ->
            Alcotest.(check bool) "chain verifies" true
              (Poe_ledger.Chain.verify chain = Ok ())
        | None -> Alcotest.fail "no chain")
    c.CP.replicas

(* ------------------------------------------------------------------ *)
(* Zyzzyva                                                             *)

let test_zyzzyva_fast_path () =
  let c = CZ.build { (Cluster.default_params ~config:(config ())) with
                     warmup = 0.4; measure = 2.0 } in
  CZ.run c;
  Alcotest.(check bool) "progress" true (Stats.completed_total c.CZ.stats > 100);
  Alcotest.(check bool) "agreement" true (CZ.committed_prefix_agrees c);
  (* Fast path: latency well under the client timeout. *)
  Alcotest.(check bool) "fast-path latency" true (CZ.avg_latency c < 0.1)

let test_zyzzyva_backup_crash_slow_path () =
  (* With one backup crashed, clients cannot gather n replies: every
     request completes only through the client-driven commit phase after
     its timeout — the paper's throughput-collapse scenario. *)
  let c = CZ.build { (Cluster.default_params ~config:(config ())) with
                     warmup = 0.4; measure = 3.0 } in
  CZ.crash_replica c 3 ~at:0.0;
  CZ.run c;
  let done_ = Stats.completed_total c.CZ.stats in
  Alcotest.(check bool) "slow path still completes requests" true (done_ > 8);
  Alcotest.(check bool) "agreement among live" true (CZ.committed_prefix_agrees c);
  (* Latency is now dominated by the 0.4 s client timeout. *)
  Alcotest.(check bool) "latency ~ timeout" true (CZ.avg_latency c > 0.3)

(* ------------------------------------------------------------------ *)
(* SBFT                                                                *)

let ts_config ?(request_timeout = 0.4) () =
  config ~scheme:Config.Auth_threshold ~request_timeout ()

let test_sbft_fast_path () =
  let c = CS.build { (Cluster.default_params ~config:(ts_config ())) with
                     warmup = 0.4; measure = 2.0 } in
  CS.run c;
  Alcotest.(check bool) "progress" true (Stats.completed_total c.CS.stats > 100);
  Alcotest.(check bool) "agreement" true (CS.committed_prefix_agrees c);
  Alcotest.(check bool) "single aggregate response suffices" true
    (CS.avg_latency c < 0.1)

let test_sbft_backup_crash_twin_path () =
  (* One crashed backup denies the collector its all-n fast quorum: every
     slot waits out the collector timeout, then commits via the slow path
     (two extra linear phases). Progress continues; latency jumps. *)
  let c = CS.build { (Cluster.default_params ~config:(ts_config ~request_timeout:0.3 ())) with
                     warmup = 0.4; measure = 3.0 } in
  CS.crash_replica c 3 ~at:0.0;
  CS.run c;
  Alcotest.(check bool) "slow path makes progress" true
    (Stats.completed_total c.CS.stats > 10);
  Alcotest.(check bool) "agreement" true (CS.committed_prefix_agrees c);
  Alcotest.(check bool) "collector timeout dominates latency" true
    (CS.avg_latency c > 0.25)

(* ------------------------------------------------------------------ *)
(* HotStuff                                                            *)

let test_hotstuff_normal () =
  let c = CH.build { (Cluster.default_params ~config:(ts_config ())) with
                     warmup = 0.4; measure = 2.0 } in
  CH.run c;
  Alcotest.(check bool) "progress" true (Stats.completed_total c.CH.stats > 50);
  Alcotest.(check bool) "agreement" true (CH.committed_prefix_agrees c);
  (* Leadership rotated: the chain is far beyond round n. *)
  Alcotest.(check bool) "rounds advanced" true
    (Hotstuff.round_of c.CH.replicas.(0) > 8)

let test_hotstuff_leader_crash_pacemaker () =
  let c = CH.build { (Cluster.default_params ~config:(ts_config ())) with
                     warmup = 0.4; measure = 3.0 } in
  (* Crash a replica: every n-th round stalls for a pacemaker timeout but
     the chain keeps committing (skipped rounds become empty blocks). *)
  CH.crash_replica c 2 ~at:0.5;
  CH.run c;
  Alcotest.(check bool) "agreement" true (CH.committed_prefix_agrees c);
  Alcotest.(check bool) "chain alive past crashes" true
    (Stats.completed_total c.CH.stats > 20)

let test_hotstuff_sequentiality () =
  (* The defining limitation (§IV-A): even fault-free, HotStuff's decision
     rate is bounded by rounds, unlike PoE under the same load. *)
  let mk (module X : R.Protocol_intf.S) =
    let module CC = Cluster.Make (X) in
    let c =
      CC.build
        { (Cluster.default_params ~config:(ts_config ())) with
          warmup = 0.4; measure = 1.5 }
    in
    CC.run c;
    Stats.throughput c.CC.stats
  in
  let hs = mk (module Hotstuff) in
  let poe = mk (module Poe_core.Poe_protocol) in
  Alcotest.(check bool)
    (Printf.sprintf "poe (%.0f) well above hotstuff (%.0f)" poe hs)
    true
    (poe > 2.0 *. hs)

(* ------------------------------------------------------------------ *)
(* Cross-protocol property: random crash schedules keep safety          *)

let crash_schedule_gen =
  QCheck.make
    QCheck.Gen.(
      pair (int_range 0 3)
        (list_size (int_bound 2) (pair (int_range 1 6) (map (fun x -> float_of_int x /. 100.) (int_bound 150)))))

let safety_under_crashes (module X : R.Protocol_intf.S) name =
  QCheck.Test.make ~name ~count:8 crash_schedule_gen (fun (seed, crashes) ->
      let module CC = Cluster.Make (X) in
      let base = config ~n:7 ~scheme:Config.Auth_threshold () in
      let cfg = { base with Config.seed = seed + 1 } in
      let c =
        CC.build
          { (Cluster.default_params ~config:cfg) with warmup = 0.3; measure = 1.2 }
      in
      (* At most f = 2 crashes, never the same replica twice. *)
      let seen = Hashtbl.create 4 in
      List.iteri
        (fun i (id, at) ->
          if i < 2 && not (Hashtbl.mem seen id) then begin
            Hashtbl.replace seen id ();
            CC.crash_replica c id ~at:(0.1 +. at)
          end)
        crashes;
      CC.run c;
      CC.committed_prefix_agrees c)

let () =
  Alcotest.run "baselines"
    [
      ( "pbft",
        [
          Alcotest.test_case "normal case" `Quick test_pbft_normal;
          Alcotest.test_case "words per message" `Quick test_pbft_message_words;
          Alcotest.test_case "backup crash" `Quick test_pbft_backup_crash;
          Alcotest.test_case "primary crash -> view change" `Quick
            test_pbft_primary_crash;
          Alcotest.test_case "no rollback semantics" `Quick
            test_pbft_no_rollback_ever;
          Alcotest.test_case "prepare from a hub id ignored" `Quick
            test_pbft_prepare_from_hub_ignored;
          Alcotest.test_case "first prepare per replica wins" `Quick
            test_pbft_first_prepare_wins;
        ] );
      ( "zyzzyva",
        [
          Alcotest.test_case "fast path" `Quick test_zyzzyva_fast_path;
          Alcotest.test_case "backup crash -> client commit phase" `Quick
            test_zyzzyva_backup_crash_slow_path;
        ] );
      ( "sbft",
        [
          Alcotest.test_case "fast path" `Quick test_sbft_fast_path;
          Alcotest.test_case "backup crash -> twin path" `Quick
            test_sbft_backup_crash_twin_path;
        ] );
      ( "hotstuff",
        [
          Alcotest.test_case "normal case, rotation" `Quick test_hotstuff_normal;
          Alcotest.test_case "leader crash -> pacemaker" `Quick
            test_hotstuff_leader_crash_pacemaker;
          Alcotest.test_case "sequential ceiling vs poe" `Slow
            test_hotstuff_sequentiality;
        ] );
      ( "safety-under-crashes",
        List.map QCheck_alcotest.to_alcotest
          [
            safety_under_crashes (module Poe_core.Poe_protocol) "poe";
            safety_under_crashes (module Pbft) "pbft";
            safety_under_crashes (module Sbft) "sbft";
            safety_under_crashes (module Hotstuff) "hotstuff";
          ] );
    ]
