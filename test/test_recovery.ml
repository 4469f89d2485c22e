(* Unit tests for the shared recovery machinery (Recovery) and the client
   machines (Hub_core), driven directly against a live engine without a
   full protocol on top. *)

module R = Poe_runtime
module Config = R.Config
module Cost = R.Cost
module Ctx = R.Replica_ctx
module Exec = R.Exec_engine
module Recovery = R.Recovery
module Hub = R.Hub_core
module Message = R.Message
module Stats = R.Stats
module Server = R.Server
module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Latency = Poe_simnet.Latency
module Rng = Poe_simnet.Rng
module Block = Poe_ledger.Block

(* A tiny fixture: [n] replica contexts with exec engines and recovery
   instances wired to the network, and a sink that records what arrives at
   each node. *)
type fixture = {
  engine : Engine.t;
  net : Message.t Network.t;
  ctxs : Ctx.t array;
  execs : Exec.t array;
  recoveries : Recovery.t array;
  suspected : bool array;
}

let make_fixture ?(n = 4) ?(materialize = false) ?on_suspect () =
  let config =
    Config.make ~n ~batch_size:2 ~materialize ~checkpoint_period:4
      ~view_timeout:0.2 ~n_hubs:1 ~clients_per_hub:1 ()
  in
  let engine = Engine.create ~seed:3 () in
  let net =
    Network.create ~engine ~n_nodes:(n + 1) ~latency:(Latency.Constant 0.001) ()
  in
  let stats = Stats.create ~warmup:0.0 ~measure:100.0 in
  let ctxs =
    Array.init n (fun id ->
        Ctx.create ~id ~config ~cost:Cost.default ~engine ~net
          ~server:(Server.create ~engine ()) ~stats ~rng:(Rng.create id) ())
  in
  let execs = Array.map (fun ctx -> Exec.create ~ctx ()) ctxs in
  let suspected = Array.make n false in
  let recoveries =
    Array.init n (fun id ->
        Recovery.create ~ctx:ctxs.(id) ~exec:execs.(id)
          ~primary:(fun () -> 0)
          ~active:(fun () -> true)
          ~on_suspect:(fun () ->
            suspected.(id) <- true;
            match on_suspect with Some f -> f id | None -> ())
          ())
  in
  Array.iteri
    (fun id recovery ->
      Network.set_handler net id (fun ~src ~bytes:_ msg ->
          ignore (Recovery.on_message recovery ~src msg)))
    recoveries;
  { engine; net; ctxs; execs; recoveries; suspected }

let batch_at i =
  Message.batch_of_requests ~materialize:false
    [ { Message.hub = 0; client = 0; rid = i; op = None; submitted = 0.0 } ]

let execute_upto fx ~replica ~upto =
  for k = 0 to upto do
    Exec.offer fx.execs.(replica) ~seqno:k ~view:0 ~batch:(batch_at k)
      ~proof:Block.No_proof
  done;
  Engine.run ~until:(Engine.now fx.engine +. 0.5) fx.engine

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let test_watch_and_suspect () =
  let fx = make_fixture () in
  Recovery.start fx.recoveries.(1);
  let req = { Message.hub = 0; client = 0; rid = 9; op = None; submitted = 0.0 } in
  Recovery.watch fx.recoveries.(1) req;
  Alcotest.(check int) "watched once" 1
    (List.length (Recovery.watched_requests fx.recoveries.(1)));
  Recovery.watch fx.recoveries.(1) req;
  Alcotest.(check int) "idempotent" 1
    (List.length (Recovery.watched_requests fx.recoveries.(1)));
  (* Nothing executes it, so the sweep eventually suspects the primary. *)
  Engine.run ~until:1.0 fx.engine;
  Alcotest.(check bool) "suspected" true fx.suspected.(1)

let test_note_executed_clears_watch () =
  let fx = make_fixture () in
  Recovery.start fx.recoveries.(1);
  let b = batch_at 0 in
  let req = b.Message.reqs.(0) in
  Recovery.watch fx.recoveries.(1) req;
  Exec.offer fx.execs.(1) ~seqno:0 ~view:0 ~batch:b ~proof:Block.No_proof;
  Engine.run ~until:0.1 fx.engine;
  Recovery.note_executed fx.recoveries.(1) ~seqno:0 ~batch:b;
  Engine.run ~until:1.5 fx.engine;
  Alcotest.(check bool) "no suspicion for executed work" false fx.suspected.(1)

let test_checkpoint_stabilizes_cluster () =
  let fx = make_fixture () in
  Array.iter Recovery.start fx.recoveries;
  (* Everyone executes 8 batches and reports them; period 4 => votes at
     seqnos 3 and 7; nf matching votes stabilize. *)
  for id = 0 to 3 do
    execute_upto fx ~replica:id ~upto:7;
    for k = 0 to 7 do
      Recovery.note_executed fx.recoveries.(id) ~seqno:k ~batch:(batch_at k)
    done
  done;
  Engine.run ~until:(Engine.now fx.engine +. 0.5) fx.engine;
  Array.iteri
    (fun id recovery ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d stable at 7" id)
        7 (Recovery.stable recovery))
    fx.recoveries

(* Checkpoint votes are last-wins: a replica that votes A and then B for
   one seqno counts only toward B. *)
let test_checkpoint_vote_last_wins () =
  let fx = make_fixture () in
  execute_upto fx ~replica:0 ~upto:3;
  let a = (batch_at 3).Message.digest in
  let vote ~src digest =
    ignore
      (Recovery.on_message fx.recoveries.(0) ~src
         (Message.Checkpoint_vote { seqno = 3; digest }))
  in
  vote ~src:1 a;
  vote ~src:2 a;
  vote ~src:2 "b";
  vote ~src:3 a;
  Alcotest.(check int) "replica 2 now counts toward b" (-1)
    (Recovery.stable fx.recoveries.(0));
  vote ~src:2 a;
  Alcotest.(check int) "stable once replica 2 votes a again" 3
    (Recovery.stable fx.recoveries.(0))

let test_lagging_replica_incremental_transfer () =
  let fx = make_fixture () in
  Array.iter Recovery.start fx.recoveries;
  (* Replicas 0-2 execute 8 batches; replica 3 executes none. Their votes
     are f+1 evidence; 3 requests a transfer and fast-forwards. *)
  for id = 0 to 2 do
    execute_upto fx ~replica:id ~upto:7;
    for k = 0 to 7 do
      Recovery.note_executed fx.recoveries.(id) ~seqno:k ~batch:(batch_at k)
    done
  done;
  Engine.run ~until:(Engine.now fx.engine +. 1.0) fx.engine;
  Alcotest.(check int) "replica 3 caught up" 7 (Exec.k_exec fx.execs.(3))

let test_snapshot_transfer_materialized () =
  let fx = make_fixture ~materialize:true () in
  Array.iter Recovery.start fx.recoveries;
  (* Record every snapshot reaching the straggler with its wire size. *)
  let snapshots = ref [] in
  Network.set_handler fx.net 3 (fun ~src ~bytes msg ->
      (match msg with
      | Message.State_snapshot { upto; rows; blocks; entries } ->
          snapshots := (bytes, upto, rows, blocks, entries) :: !snapshots
      | _ -> ());
      ignore (Recovery.on_message fx.recoveries.(3) ~src msg));
  (* Healthy replicas execute 12 materialized batches (mutating real rows),
     checkpoint at 3, 7, 11 and GC while the straggler hears nothing. Once
     its links heal, the votes of 4 more batches put it below their stable
     point, so catching up requires the snapshot path; afterwards its rows
     must equal theirs. *)
  let op k = Poe_store.Kv_store.Update ("user1", Printf.sprintf "gen-%d" k) in
  let mat_batch k =
    Message.batch_of_requests ~materialize:true
      [ { Message.hub = 0; client = 0; rid = k; op = Some (op k); submitted = 0.0 } ]
  in
  let execute ~from ~upto =
    for id = 0 to 2 do
      for k = from to upto do
        Exec.offer fx.execs.(id) ~seqno:k ~view:0 ~batch:(mat_batch k)
          ~proof:Block.No_proof
      done;
      Engine.run ~until:(Engine.now fx.engine +. 0.2) fx.engine;
      for k = from to upto do
        Recovery.note_executed fx.recoveries.(id) ~seqno:k ~batch:(mat_batch k)
      done
    done;
    Engine.run ~until:(Engine.now fx.engine +. 2.0) fx.engine
  in
  for id = 0 to 2 do
    Network.block_link fx.net ~src:id ~dst:3
  done;
  execute ~from:0 ~upto:11;
  Alcotest.(check int) "straggler heard nothing" (-1) (Exec.k_exec fx.execs.(3));
  Network.heal_partitions fx.net;
  execute ~from:12 ~upto:15;
  Alcotest.(check bool) "healthy replicas stabilized past 3" true
    (Recovery.stable fx.recoveries.(0) >= 3);
  Alcotest.(check bool)
    (Printf.sprintf "straggler fast-forwarded (k=%d)" (Exec.k_exec fx.execs.(3)))
    true
    (Exec.k_exec fx.execs.(3) >= Recovery.stable fx.recoveries.(0));
  let row id = Poe_store.Kv_store.get (Option.get (Ctx.store fx.ctxs.(id))) "user1" in
  if Exec.k_exec fx.execs.(3) = Exec.k_exec fx.execs.(0) then
    Alcotest.(check (option string)) "rows equal after snapshot" (row 0) (row 3);
  (* The senders' ledgers are pruned to an anchor at their stable point,
     but a snapshot is still charged the full ledger: genesis plus one
     block per seqno up to [upto]. *)
  Alcotest.(check bool) "a snapshot arrived" true (!snapshots <> []);
  List.iter
    (fun (bytes, upto, rows, blocks, entries) ->
      Alcotest.(check bool) "shipped ledger starts at an anchor" true
        ((List.hd blocks).Block.height > 0);
      Alcotest.(check int) "snapshot wire bytes"
        (Message.Wire.header + (List.length rows * 48) + ((upto + 2) * 96)
        + (List.length entries * (Message.Wire.per_txn + 64)))
        bytes)
    !snapshots;
  let chain = Option.get (Ctx.chain fx.ctxs.(3)) in
  Alcotest.(check bool) "straggler's chain verifies" true
    (Poe_ledger.Chain.verify chain = Ok ());
  let stable = Ctx.stable_seqno fx.ctxs.(3) in
  let at_stable id = Ctx.chain_block_hash fx.ctxs.(id) ~seqno:stable in
  Alcotest.(check bool) "straggler has its stable block" true (at_stable 3 <> None);
  Alcotest.(check (option string)) "stable block hash equals a healthy replica's"
    (at_stable 0) (at_stable 3)

(* The suspicion backoff: consecutive suspicions with no execution in
   between double the watch deadline (2^min(round, 6) x view_timeout), so
   a run of faulty successor primaries is suspected at geometrically
   growing intervals instead of every deadline sweep. *)
let test_suspicion_backoff_gaps_grow () =
  let fx_ref = ref None in
  let times = ref [] in
  let fx =
    make_fixture
      ~on_suspect:(fun id ->
        if id = 1 then
          match !fx_ref with
          | Some fx -> times := Engine.now fx.engine :: !times
          | None -> ())
      ()
  in
  fx_ref := Some fx;
  Recovery.start fx.recoveries.(1);
  let req = { Message.hub = 0; client = 0; rid = 9; op = None; submitted = 0.0 } in
  Recovery.watch fx.recoveries.(1) req;
  (* Nothing ever executes it: suspicions at ~0.3, +0.4, +0.8, +1.6... *)
  Engine.run ~until:5.0 fx.engine;
  let times = List.rev !times in
  Alcotest.(check bool)
    (Printf.sprintf "several suspicions (%d)" (List.length times))
    true
    (List.length times >= 3);
  Alcotest.(check int) "round counts consecutive suspicions"
    (List.length times)
    (Recovery.suspicion_round fx.recoveries.(1));
  match times with
  | t1 :: t2 :: t3 :: _ ->
      let g1 = t2 -. t1 and g2 = t3 -. t2 in
      Alcotest.(check bool)
        (Printf.sprintf "gaps grow geometrically (%.2f then %.2f)" g1 g2)
        true
        (g2 > g1 *. 1.5)
  | _ -> ()

let test_execution_resets_backoff () =
  let fx = make_fixture () in
  Recovery.start fx.recoveries.(1);
  let b = batch_at 0 in
  Recovery.watch fx.recoveries.(1) b.Message.reqs.(0);
  Engine.run ~until:2.0 fx.engine;
  Alcotest.(check bool) "backed off after repeated suspicion" true
    (Recovery.suspicion_round fx.recoveries.(1) >= 2);
  Exec.offer fx.execs.(1) ~seqno:0 ~view:0 ~batch:b ~proof:Block.No_proof;
  Engine.run ~until:(Engine.now fx.engine +. 0.1) fx.engine;
  Recovery.note_executed fx.recoveries.(1) ~seqno:0 ~batch:b;
  Alcotest.(check int) "execution resets the round" 0
    (Recovery.suspicion_round fx.recoveries.(1))

let test_postpone_watches_grace_without_reforward () =
  let fx = make_fixture () in
  let forwards = ref 0 in
  Network.set_handler fx.net 0 (fun ~src:_ ~bytes:_ msg ->
      match msg with
      | Message.Client_request _ | Message.Client_request_bundle _ ->
          incr forwards
      | _ -> ());
  Recovery.start fx.recoveries.(1);
  let req = { Message.hub = 0; client = 0; rid = 9; op = None; submitted = 0.0 } in
  Recovery.watch fx.recoveries.(1) req;
  Engine.run ~until:0.05 fx.engine;
  Alcotest.(check int) "watch forwarded to the primary once" 1 !forwards;
  (* A new primary postpones inherited watches: deadlines move a full
     fresh period out (past the original 0.2s deadline) but nothing is
     re-forwarded, so the backlog is not re-proposed twice. *)
  Recovery.postpone_watches fx.recoveries.(1);
  Engine.run ~until:0.24 fx.engine;
  Alcotest.(check bool) "no suspicion during the grace period" false
    fx.suspected.(1);
  Engine.run ~until:1.0 fx.engine;
  Alcotest.(check bool) "unserved watch still suspects eventually" true
    fx.suspected.(1);
  Alcotest.(check int) "postpone does not re-forward" 1 !forwards

(* ------------------------------------------------------------------ *)
(* Hub_core                                                            *)

type hub_fixture = {
  h_engine : Engine.t;
  h_net : Message.t Network.t;
  hub : Hub.t;
  h_stats : Stats.t;
  received : (int * Message.t) list ref; (* what replicas got *)
}

let make_hub ?(quorum = 3) ?(n = 4) ?(clients = 3) () =
  let config =
    Config.make ~n ~n_hubs:1 ~clients_per_hub:clients ~request_timeout:0.4
      ~client_bundle_delay:0.001 ()
  in
  let engine = Engine.create ~seed:5 () in
  let net =
    Network.create ~engine ~n_nodes:(n + 1) ~latency:(Latency.Constant 0.001) ()
  in
  let stats = Stats.create ~warmup:0.0 ~measure:100.0 in
  let received = ref [] in
  for id = 0 to n - 1 do
    Network.set_handler net id (fun ~src:_ ~bytes:_ msg ->
        received := (id, msg) :: !received)
  done;
  let hooks =
    { Hub.quorum; send_mode = Hub.To_primary; on_timeout = None; on_message = None }
  in
  let hub =
    Hub.create ~hub:0 ~config ~engine ~net ~stats ~rng:(Rng.create 7)
      ~workload:None ~hooks ()
  in
  Network.set_handler net n (fun ~src ~bytes:_ msg ->
      Hub.on_network_message hub ~src msg);
  { h_engine = engine; h_net = net; hub; h_stats = stats; received }

let respond fx ~replica ~seqno ~digest reqs =
  Network.send fx.h_net ~src:replica ~dst:4 ~bytes:100
    (Message.Exec_response
       {
         view = 0;
         seqno;
         replica;
         batch_digest = digest;
         result_digest = digest;
         acks = List.map (fun (r : Message.request) -> (r.client, r.rid)) reqs;
       })

let requests_seen fx =
  List.concat_map
    (fun (_, msg) ->
      match msg with
      | Message.Client_request_bundle reqs -> reqs
      | Message.Client_request r | Message.Client_forward r -> [ r ]
      | _ -> [])
    !(fx.received)

let test_hub_submits_and_completes () =
  let fx = make_hub () in
  Hub.start fx.hub;
  Engine.run ~until:0.1 fx.h_engine;
  Alcotest.(check int) "three outstanding" 3 (Hub.outstanding fx.hub);
  let reqs = requests_seen fx in
  Alcotest.(check int) "three requests at primary" 3 (List.length reqs);
  (* Quorum of matching responses completes and triggers resubmission. *)
  List.iter
    (fun replica -> respond fx ~replica ~seqno:0 ~digest:"d" reqs)
    [ 0; 1; 2 ];
  Engine.run ~until:0.2 fx.h_engine;
  Alcotest.(check int) "completed" 3 (Hub.completed fx.hub);
  Alcotest.(check int) "fresh requests outstanding" 3 (Hub.outstanding fx.hub);
  Alcotest.(check bool) "latency recorded" true (Stats.avg_latency fx.h_stats > 0.0)

let test_hub_quorum_requires_matching () =
  let fx = make_hub () in
  Hub.start fx.hub;
  Engine.run ~until:0.1 fx.h_engine;
  let reqs = requests_seen fx in
  (* Two agreeing + one divergent response: no completion yet. *)
  respond fx ~replica:0 ~seqno:0 ~digest:"good" reqs;
  respond fx ~replica:1 ~seqno:0 ~digest:"good" reqs;
  respond fx ~replica:2 ~seqno:0 ~digest:"evil" reqs;
  Engine.run ~until:0.2 fx.h_engine;
  Alcotest.(check int) "no completion on 2-of-3 match" 0 (Hub.completed fx.hub);
  respond fx ~replica:3 ~seqno:0 ~digest:"good" reqs;
  Engine.run ~until:0.3 fx.h_engine;
  Alcotest.(check int) "third matching response completes" 3
    (Hub.completed fx.hub)

let test_hub_duplicate_responses_ignored () =
  let fx = make_hub () in
  Hub.start fx.hub;
  Engine.run ~until:0.1 fx.h_engine;
  let reqs = requests_seen fx in
  respond fx ~replica:0 ~seqno:0 ~digest:"d" reqs;
  respond fx ~replica:0 ~seqno:0 ~digest:"d" reqs;
  respond fx ~replica:0 ~seqno:0 ~digest:"d" reqs;
  Engine.run ~until:0.2 fx.h_engine;
  Alcotest.(check int) "one replica cannot fake a quorum" 0
    (Hub.completed fx.hub)

let test_hub_timeout_forwards_to_all () =
  let fx = make_hub () in
  Hub.start fx.hub;
  (* Nobody answers: after the 0.4s timeout each request is re-broadcast
     as a CLIENT-FORWARD to every replica. *)
  Engine.run ~until:1.0 fx.h_engine;
  let forwards =
    List.filter
      (fun (_, m) -> match m with Message.Client_forward _ -> true | _ -> false)
      !(fx.received)
  in
  Alcotest.(check bool)
    (Printf.sprintf "forwards broadcast (%d)" (List.length forwards))
    true
    (List.length forwards >= 3 * 4);
  Alcotest.(check int) "still outstanding" 3 (Hub.outstanding fx.hub)

let test_hub_believed_view_tracks_responses () =
  let fx = make_hub () in
  Hub.start fx.hub;
  Engine.run ~until:0.1 fx.h_engine;
  Alcotest.(check int) "starts at view 0" 0 (Hub.believed_view fx.hub);
  Network.send fx.h_net ~src:1 ~dst:4 ~bytes:64
    (Message.Exec_response
       {
         view = 3;
         seqno = 0;
         replica = 1;
         batch_digest = "d";
         result_digest = "d";
         acks = [];
       });
  Engine.run ~until:0.2 fx.h_engine;
  Alcotest.(check int) "adopts the newest view" 3 (Hub.believed_view fx.hub)

let test_hub_pause_stops_resubmission () =
  let fx = make_hub () in
  Hub.start fx.hub;
  Engine.run ~until:0.1 fx.h_engine;
  let reqs = requests_seen fx in
  Hub.pause fx.hub;
  List.iter (fun r -> respond fx ~replica:r ~seqno:0 ~digest:"d" reqs) [ 0; 1; 2 ];
  Engine.run ~until:0.3 fx.h_engine;
  Alcotest.(check int) "completions still counted" 3 (Hub.completed fx.hub);
  Alcotest.(check int) "no new submissions after pause" 0
    (Hub.outstanding fx.hub)

let () =
  Alcotest.run "recovery"
    [
      ( "recovery",
        [
          Alcotest.test_case "watch + suspect" `Quick test_watch_and_suspect;
          Alcotest.test_case "execution clears watch" `Quick
            test_note_executed_clears_watch;
          Alcotest.test_case "checkpoints stabilize" `Quick
            test_checkpoint_stabilizes_cluster;
          Alcotest.test_case "checkpoint vote last wins" `Quick
            test_checkpoint_vote_last_wins;
          Alcotest.test_case "incremental transfer" `Quick
            test_lagging_replica_incremental_transfer;
          Alcotest.test_case "snapshot transfer (materialized)" `Quick
            test_snapshot_transfer_materialized;
          Alcotest.test_case "suspicion backoff gaps grow" `Quick
            test_suspicion_backoff_gaps_grow;
          Alcotest.test_case "execution resets backoff" `Quick
            test_execution_resets_backoff;
          Alcotest.test_case "postpone grants grace without re-forward" `Quick
            test_postpone_watches_grace_without_reforward;
        ] );
      ( "hub",
        [
          Alcotest.test_case "submit and complete" `Quick
            test_hub_submits_and_completes;
          Alcotest.test_case "quorum needs matching digests" `Quick
            test_hub_quorum_requires_matching;
          Alcotest.test_case "duplicates ignored" `Quick
            test_hub_duplicate_responses_ignored;
          Alcotest.test_case "timeout forwards to all" `Quick
            test_hub_timeout_forwards_to_all;
          Alcotest.test_case "believed view tracking" `Quick
            test_hub_believed_view_tracks_responses;
          Alcotest.test_case "pause" `Quick test_hub_pause_stops_resubmission;
        ] );
    ]
