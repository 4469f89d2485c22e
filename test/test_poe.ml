(* Protocol-level tests for PoE: normal-case agreement and termination in
   both signature variants, the paper's byzantine-primary scenarios
   (Example 3), view-change safety (Propositions 2 and 5), rollback of
   un-committed speculation, checkpointing/state transfer, and liveness
   under crash faults — all on small materialized clusters where replicas
   run the real KV store, undo log, ledger and threshold signatures. *)

module R = Poe_runtime
module Config = R.Config
module Ctx = R.Replica_ctx
module Stats = R.Stats
module Hub = R.Hub_core
module P = Poe_core.Poe_protocol
module Cluster = Poe_harness.Cluster
module C = Cluster.Make (P)
module Chain = Poe_ledger.Chain

let default_config ?(n = 4) ?(scheme = Config.Auth_mac) ?(clients = 8) () =
  Config.make ~n ~batch_size:5 ~materialize:true ~replica_scheme:scheme
    ~n_hubs:2 ~clients_per_hub:(clients / 2) ~request_timeout:0.4
    ~view_timeout:0.2 ~checkpoint_period:8 ()

let build ?(warmup = 0.4) ?(measure = 2.0) config =
  let params = { (Cluster.default_params ~config) with warmup; measure } in
  C.build params

let completed c = Stats.completed_total c.C.stats

let check_agreement c = Alcotest.(check bool) "prefix agreement" true
    (C.committed_prefix_agrees c)

let check_chains_verify c =
  Array.iter
    (fun r ->
      match Ctx.chain (P.ctx r) with
      | Some chain ->
          Alcotest.(check bool) "ledger verifies" true (Chain.verify chain = Ok ())
      | None -> Alcotest.fail "materialized run must have a ledger")
    c.C.replicas

(* ------------------------------------------------------------------ *)
(* Normal case                                                         *)

let test_normal_case scheme () =
  let c = build (default_config ~scheme ()) in
  C.run c;
  Alcotest.(check bool) "clients make progress" true (completed c > 100);
  check_agreement c;
  check_chains_verify c;
  (* All replicas stay in view 0 and execute the same prefix length ±1. *)
  Array.iter
    (fun r -> Alcotest.(check int) "view 0" 0 (P.view_of r))
    c.C.replicas;
  let ks = Array.to_list (Array.map P.k_exec c.C.replicas) in
  let kmin = List.fold_left min max_int ks
  and kmax = List.fold_left max (-1) ks in
  Alcotest.(check bool) "replicas in lockstep" true (kmax - kmin <= 2)

let test_normal_case_larger_cluster () =
  let c = build ~measure:1.0 (default_config ~n:7 ~scheme:Config.Auth_threshold ()) in
  C.run c;
  Alcotest.(check bool) "n=7 TS progress" true (completed c > 50);
  check_agreement c;
  check_chains_verify c

let test_client_latency_sane () =
  let c = build (default_config ()) in
  C.run c;
  let lat = C.avg_latency c in
  Alcotest.(check bool) "latency positive and below timeout" true
    (lat > 0.0 && lat < 0.4)

(* ------------------------------------------------------------------ *)
(* Crash faults                                                        *)

let test_backup_crash () =
  let c = build (default_config ~scheme:Config.Auth_mac ()) in
  C.crash_replica c 3 ~at:0.5;
  C.run c;
  (* nf = 3 of 4 replicas suffice: clients keep completing. *)
  Alcotest.(check bool) "progress despite backup crash" true (completed c > 100);
  check_agreement c;
  Array.iteri
    (fun i r ->
      if i < 3 then Alcotest.(check int) "no view change" 0 (P.view_of r))
    c.C.replicas

let test_primary_crash_view_change () =
  let c = build ~measure:2.5 (default_config ()) in
  C.crash_replica c 0 ~at:0.8;
  C.run c;
  check_agreement c;
  check_chains_verify c;
  (* The survivors moved to a new view with a live primary and resumed. *)
  let views =
    Array.to_list c.C.replicas
    |> List.filteri (fun i _ -> i > 0)
    |> List.map P.view_of
  in
  Alcotest.(check bool) "moved past view 0" true (List.for_all (fun v -> v >= 1) views);
  Alcotest.(check bool) "survivors agree on view" true
    (List.sort_uniq compare views |> List.length = 1);
  let k1 = P.k_exec c.C.replicas.(1) in
  Alcotest.(check bool) "progress after view change" true (k1 > 0);
  Alcotest.(check bool) "completions continue" true (completed c > 100)

let test_cascaded_primary_crashes () =
  (* Crash the primaries of view 0 and of view 1: two view changes. *)
  let c = build ~measure:3.0 (default_config ~n:7 ()) in
  C.crash_replica c 0 ~at:0.6;
  C.crash_replica c 1 ~at:1.4;
  C.run c;
  check_agreement c;
  let v = P.view_of c.C.replicas.(3) in
  Alcotest.(check bool) "reached at least view 2" true (v >= 2);
  Alcotest.(check bool) "still live" true (completed c > 50)

(* ------------------------------------------------------------------ *)
(* Byzantine primaries (Example 3)                                     *)

let test_equivocating_primary () =
  let c = build ~measure:2.5 (default_config ()) in
  C.set_behavior c 0 Ctx.Equivocate;
  C.run c;
  (* Proposition 2: never two different batches committed at one seqno. *)
  check_agreement c;
  check_chains_verify c

let test_primary_keeps_replica_in_dark () =
  let c = build ~measure:2.5 (default_config ()) in
  C.set_behavior c 0 (Ctx.Keep_in_dark [ 3 ]);
  C.run c;
  check_agreement c;
  (* The dark replica still terminates (checkpoint + state transfer,
     Theorem 7): it tracks the others within a checkpoint period or two. *)
  let k3 = P.k_exec c.C.replicas.(3) in
  let k1 = P.k_exec c.C.replicas.(1) in
  Alcotest.(check bool) "dark replica catches up" true (k1 - k3 <= 24);
  Alcotest.(check bool) "dark replica executed plenty" true (k3 > 20);
  Alcotest.(check bool) "clients unaffected" true (completed c > 100)

let test_stop_proposing_primary () =
  let c = build ~measure:2.5 (default_config ()) in
  C.set_behavior c 0 Ctx.Stop_proposing;
  C.run c;
  check_agreement c;
  (* The silent-proposer primary is replaced and service resumes. *)
  let v = P.view_of c.C.replicas.(1) in
  Alcotest.(check bool) "view change happened" true (v >= 1);
  Alcotest.(check bool) "progress in the new view" true (completed c > 50)

(* ------------------------------------------------------------------ *)
(* Speculation and rollback                                            *)

let test_rollback_preserves_client_commits () =
  (* Proposition 5, driven end-to-end: run with a primary that crashes
     mid-stream; every request a client considered executed (it got nf
     matching INFORMs) must survive into the new view on all replicas. *)
  let c = build ~measure:3.0 (default_config ()) in
  C.crash_replica c 0 ~at:1.0;
  C.run c;
  check_agreement c;
  (* Hub-side completions vs replica logs: sample digests executed by the
     survivors must form identical prefixes (agreement already checked);
     additionally nothing completed can be missing from a survivor that is
     fully caught up. *)
  let logs =
    [ 1; 2; 3 ]
    |> List.map (fun i -> Ctx.executed_digests (P.ctx c.C.replicas.(i)))
  in
  let lengths = List.map List.length logs in
  let lmax = List.fold_left max 0 lengths in
  Alcotest.(check bool) "at least one survivor fully caught up" true (lmax > 0);
  Alcotest.(check bool) "completions happened" true (completed c > 50)

let test_view_change_rolls_back_divergent_speculation () =
  (* Force suspicion on all replicas while traffic is flowing: the view
     change must leave every replica on a consistent prefix (some
     speculative executions beyond kmax are reverted). *)
  let c = build ~measure:2.0 (default_config ()) in
  Poe_simnet.Engine.schedule c.C.engine ~delay:0.7 (fun () ->
      Array.iter P.force_suspect c.C.replicas);
  C.run c;
  check_agreement c;
  check_chains_verify c;
  let v = P.view_of c.C.replicas.(1) in
  Alcotest.(check bool) "entered a later view" true (v >= 1);
  Alcotest.(check bool) "service resumed after voluntary VC" true
    (completed c > 50)

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)

let test_checkpoint_gc () =
  let c = build ~measure:2.0 (default_config ()) in
  C.run c;
  (* With period 8 and hundreds of batches, the stable point advanced and
     undo history is bounded. *)
  Array.iter
    (fun r ->
      Alcotest.(check bool) "stable advanced" true (P.stable_seqno r > 0);
      Alcotest.(check bool) "stable trails k_exec" true
        (P.stable_seqno r <= P.k_exec r))
    c.C.replicas

(* Checkpoints keep certifying after a failover. With 64 clients, slots
   are in flight when the primary crashes; a replica that adopts them
   from the new view's proposal or by state transfer holds an empty vote
   certificate where its peers hold the threshold signature. The
   checkpoint vote (a block hash) must not depend on the proof, or the
   stable checkpoint freezes at the crash and retained batches grow
   without bound. *)
let test_checkpoint_gc_after_failover () =
  let config = default_config ~scheme:Config.Auth_threshold ~clients:64 () in
  let period = config.Config.checkpoint_period in
  let c = build ~measure:2.0 config in
  let crash_at = 0.8 in
  let at_crash = ref (-1) in
  Poe_simnet.Engine.schedule c.C.engine ~delay:crash_at (fun () ->
      at_crash := Array.fold_left (fun acc r -> max acc (P.k_exec r)) (-1)
          c.C.replicas);
  C.crash_replica c 0 ~at:crash_at;
  C.run c;
  check_agreement c;
  check_chains_verify c;
  Alcotest.(check bool) "executed before the crash" true (!at_crash > 0);
  Array.iteri
    (fun i r ->
      if i > 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "replica %d: stable %d >= %d" i (P.stable_seqno r)
             (!at_crash + (2 * period)))
          true
          (P.stable_seqno r >= !at_crash + (2 * period));
        Alcotest.(check bool)
          (Printf.sprintf "replica %d: %d retained batches <= %d" i
             (P.retained_batches r) (4 * period))
          true
          (P.retained_batches r <= 4 * period)
      end)
    c.C.replicas

(* Each stable checkpoint prunes the ledger to its anchor, so at any
   horizon a replica retains only the blocks from its stable point to its
   head, while the executed log keeps the whole history. *)
let test_ledger_bounded () =
  let config = default_config ~scheme:Config.Auth_threshold () in
  List.iter
    (fun measure ->
      let c = build ~measure config in
      C.run c;
      check_chains_verify c;
      Array.iteri
        (fun i r ->
          let ctx = P.ctx r in
          let retained = Chain.length (Option.get (Ctx.chain ctx)) in
          let bound = P.k_exec r - P.stable_seqno r + 2 in
          Alcotest.(check bool)
            (Printf.sprintf "measure %.1f, replica %d: %d retained blocks <= %d"
               measure i retained bound)
            true
            (retained <= bound && P.k_exec r > 4 * bound);
          match Ctx.executed_digests ctx with
          | (0, _) :: _ -> ()
          | _ -> Alcotest.fail "executed log lost its start")
        c.C.replicas)
    [ 1.0; 2.0 ]

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)

let test_deterministic_runs () =
  let run () =
    let c = build ~measure:1.0 (default_config ()) in
    C.run c;
    ( completed c,
      Array.to_list (Array.map P.k_exec c.C.replicas),
      Ctx.executed_digests (P.ctx c.C.replicas.(2)) )
  in
  Alcotest.(check bool) "same seed, same everything" true (run () = run ())

let () =
  Alcotest.run "poe"
    [
      ( "normal-case",
        [
          Alcotest.test_case "MAC variant agreement+termination" `Quick
            (test_normal_case Config.Auth_mac);
          Alcotest.test_case "TS variant agreement+termination" `Quick
            (test_normal_case Config.Auth_threshold);
          Alcotest.test_case "n=7 threshold cluster" `Quick
            test_normal_case_larger_cluster;
          Alcotest.test_case "latency sane" `Quick test_client_latency_sane;
        ] );
      ( "crash-faults",
        [
          Alcotest.test_case "backup crash tolerated" `Quick test_backup_crash;
          Alcotest.test_case "primary crash -> view change" `Quick
            test_primary_crash_view_change;
          Alcotest.test_case "cascaded crashes" `Slow
            test_cascaded_primary_crashes;
        ] );
      ( "byzantine-primary",
        [
          Alcotest.test_case "equivocation (Prop 2)" `Quick
            test_equivocating_primary;
          Alcotest.test_case "replica kept in the dark (Thm 7)" `Quick
            test_primary_keeps_replica_in_dark;
          Alcotest.test_case "stops proposing" `Quick test_stop_proposing_primary;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "client commits survive VC (Prop 5)" `Quick
            test_rollback_preserves_client_commits;
          Alcotest.test_case "divergent speculation rolled back" `Quick
            test_view_change_rolls_back_divergent_speculation;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "gc bounded" `Quick test_checkpoint_gc;
          Alcotest.test_case "gc bounded after TS failover" `Quick
            test_checkpoint_gc_after_failover;
          Alcotest.test_case "ledger bounded at the stable checkpoint" `Quick
            test_ledger_bounded;
        ] );
      ("determinism", [ Alcotest.test_case "replayable" `Quick test_deterministic_runs ]);
    ]
