(* Tests for the replica runtime: configuration invariants, the cost model,
   CPU-lane queueing, measurement windows, wire sizes, the batching
   pipeline, the in-order execution engine (including rollback and its
   reply fan-out), and the client hub's request table. *)

module R = Poe_runtime
module Config = R.Config
module Cost = R.Cost
module Server = R.Server
module Stats = R.Stats
module Message = R.Message
module Ctx = R.Replica_ctx
module Pipeline = R.Pipeline
module Exec = R.Exec_engine
module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Latency = Poe_simnet.Latency
module Rng = Poe_simnet.Rng
module Block = Poe_ledger.Block

(* ------------------------------------------------------------------ *)
(* Config                                                              *)

let test_config_quorums () =
  List.iter
    (fun (n, f) ->
      let cfg = Config.make ~n () in
      Alcotest.(check int) (Printf.sprintf "f at n=%d" n) f (Config.f cfg);
      Alcotest.(check int)
        (Printf.sprintf "nf at n=%d" n)
        (n - f) (Config.nf cfg);
      Alcotest.(check bool) "n > 3f" true (n > 3 * Config.f cfg))
    [ (4, 1); (5, 1); (7, 2); (16, 5); (32, 10); (64, 21); (91, 30) ]

let test_config_primary_rotation () =
  let cfg = Config.make ~n:4 () in
  Alcotest.(check int) "view 0" 0 (Config.primary_of_view cfg 0);
  Alcotest.(check int) "view 3" 3 (Config.primary_of_view cfg 3);
  Alcotest.(check int) "view 4 wraps" 0 (Config.primary_of_view cfg 4)

let test_config_validation () =
  Alcotest.check_raises "n < 4" (Invalid_argument "Config.make: need n >= 4 for BFT")
    (fun () -> ignore (Config.make ~n:3 ()));
  (* out_of_order = false forces a sequential window. *)
  let cfg = Config.make ~n:4 ~out_of_order:false ~window:999 () in
  Alcotest.(check int) "window forced to 1" 1 cfg.Config.window

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)

let test_cost_schemes () =
  let c = Cost.default in
  Alcotest.(check (float 0.0)) "none free" 0.0 (Cost.auth_sign c Config.Auth_none);
  Alcotest.(check bool) "mac < ds" true
    (Cost.auth_verify c Config.Auth_mac < Cost.auth_verify c Config.Auth_digital);
  Alcotest.(check bool) "hash grows with bytes" true
    (Cost.hash_cost c ~bytes:10_000 > Cost.hash_cost c ~bytes:10);
  Alcotest.(check bool) "combine grows with shares" true
    (Cost.combine_cost c ~shares:61 > Cost.combine_cost c ~shares:3);
  let z = Cost.zero in
  Alcotest.(check (float 0.0)) "zero model hash" 0.0 (Cost.hash_cost z ~bytes:5400);
  Alcotest.(check (float 0.0)) "zero model combine" 0.0
    (Cost.combine_cost z ~shares:61)

(* ------------------------------------------------------------------ *)
(* Server                                                              *)

let test_server_single_lane_fifo () =
  let engine = Engine.create () in
  let server = Server.create ~engine ~worker_lanes:1 () in
  let done_at = ref [] in
  for i = 1 to 3 do
    Server.submit server Server.Worker ~cost:0.1 (fun () ->
        done_at := (i, Engine.now engine) :: !done_at)
  done;
  Engine.run engine;
  match List.rev !done_at with
  | [ (1, t1); (2, t2); (3, t3) ] ->
      Alcotest.(check (float 1e-9)) "first" 0.1 t1;
      Alcotest.(check (float 1e-9)) "queued second" 0.2 t2;
      Alcotest.(check (float 1e-9)) "queued third" 0.3 t3
  | _ -> Alcotest.fail "wrong completion order"

let test_server_parallel_lanes () =
  let engine = Engine.create () in
  let server = Server.create ~engine ~io_lanes:2 () in
  let finishes = ref [] in
  for _ = 1 to 4 do
    Server.submit server Server.Io ~cost:0.1 (fun () ->
        finishes := Engine.now engine :: !finishes)
  done;
  Engine.run engine;
  let finishes = List.sort compare !finishes in
  Alcotest.(check (list (float 1e-9))) "two waves of two"
    [ 0.1; 0.1; 0.2; 0.2 ] finishes;
  Alcotest.(check (float 1e-9)) "busy accounting" 0.4
    (Server.busy_seconds server Server.Io)

let test_server_backlog () =
  let engine = Engine.create () in
  let server = Server.create ~engine ~worker_lanes:1 () in
  Alcotest.(check (float 1e-9)) "idle" 0.0 (Server.backlog server Server.Worker);
  Server.submit server Server.Worker ~cost:0.5 (fun () -> ());
  Alcotest.(check (float 1e-9)) "backlogged" 0.5
    (Server.backlog server Server.Worker);
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Server.submit: negative cost") (fun () ->
      Server.submit server Server.Worker ~cost:(-1.0) (fun () -> ()))

(* Utilization sampled the way the lane sampler does it: busy seconds
   accrued per simulated second. Three 1 s jobs handed to one lane at
   t = 0 keep it exactly busy for 3 s, never more. *)
let test_server_utilization_is_work_done () =
  let engine = Engine.create () in
  let server = Server.create ~engine ~worker_lanes:1 () in
  for _ = 1 to 3 do
    Server.submit server Server.Worker ~cost:1.0 (fun () -> ())
  done;
  let interval = 0.25 in
  let prev = ref 0.0 and samples = ref [] in
  let rec sample () =
    let busy = Server.busy_seconds server Server.Worker in
    samples := ((busy -. !prev) /. interval) :: !samples;
    prev := busy;
    if Engine.now engine < 4.0 then Engine.schedule engine ~delay:interval sample
  in
  Engine.schedule engine ~delay:interval sample;
  Engine.run engine;
  List.iter
    (fun u ->
      Alcotest.(check bool) (Printf.sprintf "utilization %.3f <= 1" u) true
        (u <= 1.0 +. 1e-9))
    !samples;
  Alcotest.(check (float 1e-9)) "all work done" 3.0
    (Server.busy_seconds server Server.Worker)

let test_server_resources_independent () =
  let engine = Engine.create () in
  let server = Server.create ~engine () in
  Server.submit server Server.Worker ~cost:1.0 (fun () -> ());
  Alcotest.(check (float 1e-9)) "execute unaffected" 0.0
    (Server.backlog server Server.Execute)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_window () =
  let s = Stats.create ~warmup:1.0 ~measure:2.0 in
  (* Before, inside, and after the window. *)
  Stats.record_completion s ~now:0.5 ~submitted:0.4 ~count:10;
  Stats.record_completion s ~now:1.5 ~submitted:1.0 ~count:10;
  Stats.record_completion s ~now:2.5 ~submitted:2.0 ~count:10;
  Stats.record_completion s ~now:3.5 ~submitted:3.0 ~count:10;
  Alcotest.(check (float 1e-9)) "throughput counts window only" 10.0
    (Stats.throughput s);
  Alcotest.(check (float 1e-9)) "latency avg over window" 0.5 (Stats.avg_latency s);
  Alcotest.(check int) "total counts all" 40 (Stats.completed_total s)

let test_stats_buckets () =
  let s = Stats.create ~warmup:0.0 ~measure:10.0 in
  Stats.record_completion s ~now:0.2 ~submitted:0.1 ~count:5;
  Stats.record_completion s ~now:0.7 ~submitted:0.6 ~count:5;
  Stats.record_completion s ~now:1.2 ~submitted:1.1 ~count:20;
  let series = Stats.bucket_series s ~bucket:1.0 ~upto:3.0 in
  match series with
  | [ (t0, r0); (t1, r1); (t2, r2) ] ->
      Alcotest.(check (float 1e-9)) "bucket starts" 0.0 t0;
      Alcotest.(check (float 1e-9)) "bucket 0 rate" 10.0 r0;
      Alcotest.(check (float 1e-9)) "bucket 1 start" 1.0 t1;
      Alcotest.(check (float 1e-9)) "bucket 1 rate" 20.0 r1;
      Alcotest.(check (float 1e-9)) "bucket 2 start" 2.0 t2;
      Alcotest.(check (float 1e-9)) "bucket 2 empty" 0.0 r2
  | _ -> Alcotest.fail "expected three buckets"

let test_stats_bucket_boundary () =
  (* A completion recorded at exactly [upto] must land in the final
     bucket, not vanish past the series. *)
  let s = Stats.create ~warmup:0.0 ~measure:10.0 in
  Stats.record_completion s ~now:3.0 ~submitted:2.9 ~count:7;
  let series = Stats.bucket_series s ~bucket:1.0 ~upto:3.0 in
  Alcotest.(check int) "three buckets" 3 (List.length series);
  let _, last = List.nth series 2 in
  Alcotest.(check (float 1e-9)) "completion at upto counted" 7.0 last;
  (* Interior bucket boundaries stay half-open. *)
  let s2 = Stats.create ~warmup:0.0 ~measure:10.0 in
  Stats.record_completion s2 ~now:1.0 ~submitted:0.9 ~count:3;
  (match Stats.bucket_series s2 ~bucket:1.0 ~upto:3.0 with
  | [ (_, r0); (_, r1); (_, r2) ] ->
      Alcotest.(check (float 1e-9)) "not in bucket 0" 0.0 r0;
      Alcotest.(check (float 1e-9)) "in bucket 1" 3.0 r1;
      Alcotest.(check (float 1e-9)) "not in bucket 2" 0.0 r2
  | _ -> Alcotest.fail "expected three buckets")

let test_stats_empty_window () =
  (* No completions inside the measurement window: rates must read 0,
     not NaN or a division error. *)
  let s = Stats.create ~warmup:1.0 ~measure:2.0 in
  Alcotest.(check (float 0.0)) "throughput empty" 0.0 (Stats.throughput s);
  Alcotest.(check (float 0.0)) "latency empty" 0.0 (Stats.avg_latency s);
  (* Completions strictly outside the window still read 0. *)
  Stats.record_completion s ~now:0.5 ~submitted:0.4 ~count:10;
  Stats.record_completion s ~now:3.5 ~submitted:3.4 ~count:10;
  Alcotest.(check (float 0.0)) "throughput outside only" 0.0
    (Stats.throughput s);
  Alcotest.(check (float 0.0)) "latency outside only" 0.0 (Stats.avg_latency s)

(* ------------------------------------------------------------------ *)
(* Message wire sizes                                                  *)

let test_wire_sizes () =
  let std = Config.make ~n:4 ~batch_size:100 () in
  let zero = Config.make ~n:4 ~batch_size:100 ~payload:Config.Zero () in
  (* Paper: PROPOSE = 5400 B at batch 100, other messages ~250 B. *)
  let p = Message.Wire.propose std in
  Alcotest.(check bool) "propose near 5400B" true (abs (p - 5400) < 200);
  Alcotest.(check int) "zero payload propose is bare" Message.Wire.header
    (Message.Wire.propose zero);
  Alcotest.(check int) "votes are 250B" 250 Message.Wire.vote;
  Alcotest.(check bool) "response grows with acks" true
    (Message.Wire.response std ~per_reqs:10 > Message.Wire.response std ~per_reqs:1);
  Alcotest.(check bool) "vc grows with entries" true
    (Message.Wire.view_change std ~entries:50
    > Message.Wire.view_change std ~entries:0)

let test_batch_of_requests () =
  let mk i =
    { Message.hub = 0; client = i; rid = 0; op = None; submitted = 0.0 }
  in
  let reqs = List.init 5 mk in
  let b1 = Message.batch_of_requests ~materialize:true reqs in
  let b2 = Message.batch_of_requests ~materialize:true reqs in
  Alcotest.(check string) "deterministic digest" b1.Message.digest b2.Message.digest;
  let b3 = Message.batch_of_requests ~materialize:true (List.tl reqs) in
  Alcotest.(check bool) "different content, different digest" false
    (String.equal b1.Message.digest b3.Message.digest);
  Alcotest.(check int) "size" 5 (Array.length b1.Message.reqs)

(* A known answer computed when each request was formatted as
   "hub.client.rid:" ^ [Kv_store.encode_op] before hashing. *)
let test_materialized_digest_known_answer () =
  let module Kv = Poe_store.Kv_store in
  let mk (hub, client, rid, op) = { Message.hub; client; rid; op; submitted = 0.0 } in
  let b =
    Message.batch_of_requests ~materialize:true
      (List.map mk
         [ (0, 0, 0, Some (Kv.Update ("user7", "value-0123456789")));
           (15, 199, 123456, Some (Kv.Read "user999"));
           (3, 1, 2, None);
           (1, 2, 3, Some (Kv.Insert ("k", "")));
           (2, 3, 4, Some (Kv.Delete "user1")) ])
  in
  Alcotest.(check string) "digest"
    "47bbdf5dcc401cd8ac961fe0cfbfe726298a18d8a044ec00b5fb3b42ecccc31d"
    (Poe_crypto.Sha256.to_hex b.Message.digest)

(* The materialized digest hashes exactly the lines "hub.client.rid:op"
   with the op in [Kv_store.encode_op] form. *)
let batch_digest_qcheck =
  let module Kv = Poe_store.Kv_store in
  let op =
    QCheck.Gen.(
      let s = string_size (0 -- 20) in
      oneof
        [ return None;
          map (fun k -> Some (Kv.Read k)) s;
          map2 (fun k v -> Some (Kv.Update (k, v))) s s;
          map2 (fun k v -> Some (Kv.Insert (k, v))) s s;
          map (fun k -> Some (Kv.Delete k)) s ])
  in
  let req =
    QCheck.Gen.(
      map2
        (fun (hub, client, rid) op -> { Message.hub; client; rid; op; submitted = 0.0 })
        (triple int int int) op)
  in
  [
    QCheck.Test.make ~name:"materialized digest hashes the formatted lines"
      ~count:1000
      (QCheck.make QCheck.Gen.(list_size (0 -- 12) req))
      (fun reqs ->
        let line (r : Message.request) =
          Printf.sprintf "%d.%d.%d:%s" r.hub r.client r.rid
            (match r.op with Some op -> Kv.encode_op op | None -> "")
        in
        (Message.batch_of_requests ~materialize:true reqs).Message.digest
        = Poe_crypto.Sha256.digest (String.concat "" (List.map line reqs)));
  ]

(* ------------------------------------------------------------------ *)
(* Test fixture: a single replica context on a live engine              *)

let make_ctx_net ?(materialize = false) ?(config = None) () =
  let cfg =
    match config with
    | Some c -> c
    | None -> Config.make ~n:4 ~batch_size:3 ~batch_delay:0.01 ~materialize ()
  in
  let engine = Engine.create () in
  let net =
    Network.create ~engine
      ~n_nodes:(cfg.Config.n + cfg.Config.n_hubs)
      ~latency:(Latency.Constant 0.001) ()
  in
  let server = Server.create ~engine () in
  let stats = Stats.create ~warmup:0.0 ~measure:10.0 in
  let ctx =
    Ctx.create ~id:0 ~config:cfg ~cost:Cost.default ~engine ~net ~server ~stats
      ~rng:(Rng.create 1) ()
  in
  (engine, net, ctx)

let make_ctx ?materialize ?config () =
  let engine, _, ctx = make_ctx_net ?materialize ?config () in
  (engine, ctx)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)

let mk_req i =
  { Message.hub = 0; client = i; rid = 0; op = None; submitted = 0.0 }

let test_pipeline_full_batch () =
  let engine, ctx = make_ctx () in
  let batches = ref [] in
  let p = Pipeline.create ~ctx ~on_batch:(fun b -> batches := b :: !batches) () in
  for i = 0 to 6 do
    Pipeline.add_request p (mk_req i)
  done;
  Engine.run ~until:0.001 engine;
  (* batch_size = 3: two full batches immediately, one request left. *)
  Alcotest.(check int) "two full batches" 2 (List.length !batches);
  Alcotest.(check int) "one queued" 1 (Pipeline.queued p);
  (* The partial batch closes after batch_delay. *)
  Engine.run ~until:0.1 engine;
  Alcotest.(check int) "partial batch closed" 3 (List.length !batches);
  List.iter
    (fun (b : Message.batch) ->
      Alcotest.(check bool) "batch sized" true (Array.length b.Message.reqs <= 3))
    !batches

let test_pipeline_dedup () =
  let engine, ctx = make_ctx () in
  let count = ref 0 in
  let p =
    Pipeline.create ~ctx
      ~on_batch:(fun b -> count := !count + Array.length b.Message.reqs)
      ()
  in
  let r = mk_req 1 in
  Pipeline.add_request p r;
  Pipeline.add_request p r;
  Pipeline.add_request p r;
  Engine.run ~until:1.0 engine;
  Alcotest.(check int) "duplicate requests collapsed" 1 !count;
  Alcotest.(check bool) "marked proposed" true (Pipeline.already_proposed p r)

let test_pipeline_window () =
  let cfg = Config.make ~n:4 ~batch_size:1 ~window:2 ~batch_delay:0.0001 () in
  let engine, ctx = make_ctx ~config:(Some cfg) () in
  let batches = ref 0 in
  let p = Pipeline.create ~ctx ~on_batch:(fun _ -> incr batches) () in
  for i = 0 to 9 do
    Pipeline.add_request p (mk_req i)
  done;
  Engine.run ~until:0.5 engine;
  Alcotest.(check int) "window caps dispatch" 2 !batches;
  Alcotest.(check int) "in flight" 2 (Pipeline.in_flight p);
  (* Closing slots releases the next batches. *)
  Pipeline.seqno_closed p;
  Pipeline.seqno_closed p;
  Engine.run ~until:1.0 engine;
  Alcotest.(check int) "two more dispatched" 4 !batches

(* A full batch supersedes the pending partial-batch timer. That timer
   still fires, but must not close the partial batch started after it:
   that one waits out its own batch_delay. *)
let test_pipeline_superseded_timer () =
  let engine, ctx = make_ctx () in
  let closed_at = ref [] in
  let p =
    Pipeline.create ~ctx
      ~on_batch:(fun _ -> closed_at := Engine.now engine :: !closed_at)
      ()
  in
  Pipeline.add_request p (mk_req 0);
  (* Timer armed for 0.01; two more requests fill the batch at once. *)
  Pipeline.add_request p (mk_req 1);
  Pipeline.add_request p (mk_req 2);
  Engine.schedule engine ~delay:0.005 (fun () -> Pipeline.add_request p (mk_req 3));
  Engine.run ~until:0.014 engine;
  Alcotest.(check int) "only the full batch by 0.014" 1 (List.length !closed_at);
  Engine.run ~until:0.1 engine;
  match !closed_at with
  | [ partial; _full ] ->
      Alcotest.(check bool) "partial batch waited its own delay" true
        (partial >= 0.015)
  | _ -> Alcotest.fail "expected two batches"

let test_pipeline_drain () =
  let engine, ctx = make_ctx () in
  let p = Pipeline.create ~ctx ~on_batch:(fun _ -> ()) () in
  Pipeline.add_request p (mk_req 1);
  Pipeline.add_request p (mk_req 2);
  ignore engine;
  let drained = Pipeline.drain_pending p in
  Alcotest.(check int) "drained" 2 (List.length drained);
  Alcotest.(check int) "queue empty" 0 (Pipeline.queued p);
  (* Drained requests stay deduplicated. *)
  Alcotest.(check bool) "still seen" true (Pipeline.already_proposed p (mk_req 1))

(* ------------------------------------------------------------------ *)
(* Exec engine                                                         *)

let batch_of i =
  let reqs = [ { Message.hub = 0; client = 0; rid = i; op = None; submitted = 0.0 } ] in
  Message.batch_of_requests ~materialize:false reqs

let materialized_batch store_ops i =
  let reqs =
    List.mapi
      (fun j op ->
        { Message.hub = 0; client = j; rid = i; op = Some op; submitted = 0.0 })
      store_ops
  in
  Message.batch_of_requests ~materialize:true reqs

let test_exec_in_order () =
  let engine, ctx = make_ctx () in
  let order = ref [] in
  let exec =
    Exec.create ~ctx
      ~on_executed:(fun ~seqno ~batch:_ ~result:_ -> order := seqno :: !order)
      ()
  in
  (* Offer out of order: 2, 0, 1. Nothing runs until 0 arrives; everything
     runs in sequence order. *)
  Exec.offer exec ~seqno:2 ~view:0 ~batch:(batch_of 2) ~proof:Block.No_proof;
  Engine.run ~until:0.1 engine;
  Alcotest.(check (list int)) "gap stalls" [] !order;
  Exec.offer exec ~seqno:0 ~view:0 ~batch:(batch_of 0) ~proof:Block.No_proof;
  Exec.offer exec ~seqno:1 ~view:0 ~batch:(batch_of 1) ~proof:Block.No_proof;
  Engine.run ~until:1.0 engine;
  Alcotest.(check (list int)) "in order" [ 0; 1; 2 ] (List.rev !order);
  Alcotest.(check int) "k_exec" 2 (Exec.k_exec exec);
  (* Duplicate offers are ignored. *)
  Exec.offer exec ~seqno:1 ~view:0 ~batch:(batch_of 1) ~proof:Block.No_proof;
  Engine.run ~until:2.0 engine;
  Alcotest.(check int) "no re-execution" 3 (List.length !order)

let test_exec_was_executed_and_summaries () =
  let engine, ctx = make_ctx () in
  let exec = Exec.create ~ctx () in
  let b0 = batch_of 0 and b1 = batch_of 1 in
  Exec.offer exec ~seqno:0 ~view:0 ~batch:b0 ~proof:Block.No_proof;
  Exec.offer exec ~seqno:1 ~view:3 ~batch:b1 ~proof:Block.No_proof;
  Engine.run ~until:1.0 engine;
  Alcotest.(check bool) "req executed" true
    (Exec.was_executed exec b0.Message.reqs.(0));
  (match Exec.executed_since exec (-1) with
  | [ (0, 0, _); (1, 3, _) ] -> ()
  | _ -> Alcotest.fail "bad summary");
  Alcotest.(check bool) "executed_batch" true
    (Exec.executed_batch exec 1 = Some b1);
  (* GC drops retained batches but keeps the request keys: a client
     retransmission straggling in after its batch was garbage-collected
     must still be recognized as executed, or it would run twice. *)
  Exec.set_stable exec 0;
  Exec.gc_below exec ~seqno:0;
  Alcotest.(check bool) "gc dropped batch" true (Exec.executed_batch exec 0 = None);
  Alcotest.(check bool) "gc keeps dedup key" true
    (Exec.was_executed exec b0.Message.reqs.(0));
  Alcotest.(check (list (pair int int)))
    "summary starts after stable"
    [ (1, 3) ]
    (List.map (fun (s, v, _) -> (s, v)) (Exec.executed_since exec (-1)))

let test_exec_rollback_materialized () =
  let cfg = Config.make ~n:4 ~batch_size:2 ~materialize:true () in
  let engine, ctx = make_ctx ~config:(Some cfg) () in
  let exec = Exec.create ~ctx () in
  let store = Option.get (Ctx.store ctx) in
  let user2_before = Poe_store.Kv_store.get store "user2" in
  let b0 = materialized_batch [ Poe_store.Kv_store.Update ("user1", "AAA") ] 0 in
  let b1 = materialized_batch [ Poe_store.Kv_store.Update ("user1", "BBB") ] 1 in
  let b2 = materialized_batch [ Poe_store.Kv_store.Update ("user2", "CCC") ] 2 in
  Exec.offer exec ~seqno:0 ~view:0 ~batch:b0 ~proof:Block.No_proof;
  Exec.offer exec ~seqno:1 ~view:0 ~batch:b1 ~proof:Block.No_proof;
  Exec.offer exec ~seqno:2 ~view:0 ~batch:b2 ~proof:Block.No_proof;
  Engine.run ~until:1.0 engine;
  Alcotest.(check (option string)) "user1 after" (Some "BBB")
    (Poe_store.Kv_store.get store "user1");
  (* Roll back the two speculative batches above seqno 0. *)
  let reverted = Exec.rollback_to exec ~seqno:0 in
  Alcotest.(check int) "two reverted" 2 reverted;
  Alcotest.(check (option string)) "user1 back to AAA" (Some "AAA")
    (Poe_store.Kv_store.get store "user1");
  Alcotest.(check (option string)) "user2 reverted to original" user2_before
    (Poe_store.Kv_store.get store "user2");
  Alcotest.(check int) "k_exec rewound" 0 (Exec.k_exec exec);
  Alcotest.(check bool) "rolled-back request forgotten" false
    (Exec.was_executed exec b1.Message.reqs.(0));
  (* Re-execution after rollback (the view-change adopt path). *)
  Exec.force_adopt exec ~seqno:1 ~view:1 ~batch:b1 ~proof:Block.No_proof;
  Alcotest.(check (option string)) "re-executed" (Some "BBB")
    (Poe_store.Kv_store.get store "user1");
  (* The ledger shrank and regrew consistently. *)
  match Ctx.chain ctx with
  | Some chain ->
      Alcotest.(check bool) "chain verifies" true
        (Poe_ledger.Chain.verify chain = Ok ())
  | None -> Alcotest.fail "expected a chain"

(* A rolled-back batch that duplicated a live request: the state machine
   keeps the first execution (the duplicate was skipped, and is skipped
   again on re-execution), while [was_executed] forgets the request with
   the rolled-back batch even though its first execution is still live. *)
let test_exec_rolled_back_duplicate () =
  let cfg = Config.make ~n:4 ~batch_size:2 ~materialize:true () in
  let engine, ctx = make_ctx ~config:(Some cfg) () in
  let exec = Exec.create ~ctx () in
  let store = Option.get (Ctx.store ctx) in
  let user2_before = Poe_store.Kv_store.get store "user2" in
  let b0 = materialized_batch [ Poe_store.Kv_store.Update ("user1", "AAA") ] 0 in
  let b1 =
    materialized_batch
      Poe_store.Kv_store.[ Update ("user1", "AAA"); Update ("user2", "CCC") ]
      0
  in
  let dup = b0.Message.reqs.(0) and fresh = b1.Message.reqs.(1) in
  Alcotest.(check bool) "same request" true (dup = b1.Message.reqs.(0));
  Exec.offer exec ~seqno:0 ~view:0 ~batch:b0 ~proof:Block.No_proof;
  Exec.offer exec ~seqno:1 ~view:0 ~batch:b1 ~proof:Block.No_proof;
  Engine.run ~until:1.0 engine;
  Alcotest.(check int) "duplicate skipped" 1 (Ctx.deduped_requests ctx);
  Alcotest.(check (option string)) "fresh applied" (Some "CCC")
    (Poe_store.Kv_store.get store "user2");
  Alcotest.(check int) "one reverted" 1 (Exec.rollback_to exec ~seqno:0);
  Alcotest.(check (option string)) "fresh reverted" user2_before
    (Poe_store.Kv_store.get store "user2");
  Alcotest.(check bool) "duplicate forgotten with its batch" false
    (Exec.was_executed exec dup);
  Alcotest.(check bool) "fresh forgotten" false (Exec.was_executed exec fresh);
  Exec.force_adopt exec ~seqno:1 ~view:1 ~batch:b1 ~proof:Block.No_proof;
  Alcotest.(check int) "first execution still live: skipped again" 2
    (Ctx.deduped_requests ctx);
  Alcotest.(check bool) "executed again" true (Exec.was_executed exec dup);
  Alcotest.(check (option string)) "fresh re-applied" (Some "CCC")
    (Poe_store.Kv_store.get store "user2");
  Alcotest.(check int) "no violation" 0 (Ctx.duplicate_executions ctx)

let test_exec_force_adopt_gap () =
  let engine, ctx = make_ctx () in
  let exec = Exec.create ~ctx () in
  ignore engine;
  Alcotest.check_raises "gap rejected"
    (Invalid_argument "Exec_engine.force_adopt: gap in adopted prefix")
    (fun () ->
      Exec.force_adopt exec ~seqno:5 ~view:0 ~batch:(batch_of 5)
        ~proof:Block.No_proof)

(* One INFORM per client machine a batch names, sized by that machine's
   acks; the engine's per-hub buckets start empty for every batch,
   rollback or not. *)
let test_exec_reply_fan_out () =
  let engine, net, ctx = make_ctx_net () in
  let cfg = Ctx.config ctx in
  let inbox = ref [] in
  for hub = 0 to cfg.Config.n_hubs - 1 do
    Network.set_handler net (cfg.Config.n + hub) (fun ~src:_ ~bytes msg ->
        match msg with
        | Message.Exec_response { seqno; acks; _ } ->
            inbox := (seqno, hub, List.sort compare acks, bytes) :: !inbox
        | _ -> ())
  done;
  let exec = Exec.create ~ctx () in
  let batch rid hubs_clients =
    Message.batch_of_requests ~materialize:false
      (List.map
         (fun (hub, client) ->
           { Message.hub; client; rid; op = None; submitted = 0.0 })
         hubs_clients)
  in
  let expect seqno rid per_hub =
    List.map
      (fun (hub, clients) ->
        ( seqno,
          hub,
          List.map (fun c -> (c, rid)) clients,
          Message.Wire.response cfg ~per_reqs:(List.length clients) ))
      per_hub
  in
  let run_batch ~seqno b =
    inbox := [];
    Exec.offer exec ~seqno ~view:0 ~batch:b ~proof:Block.No_proof;
    Engine.run ~until:(Engine.now engine +. 1.0) engine;
    (* Larger messages take longer on the wire: compare by hub. *)
    List.sort compare !inbox
  in
  let check name expected got =
    Alcotest.(check (list (pair (pair int int) (pair (list (pair int int)) int))))
      name
      (List.map (fun (s, h, a, b) -> ((s, h), (a, b))) expected)
      (List.map (fun (s, h, a, b) -> ((s, h), (a, b))) got)
  in
  check "three hubs, three responses"
    (expect 0 0 [ (1, [ 0; 1 ]); (3, [ 0; 2 ]); (5, [ 4 ]) ])
    (run_batch ~seqno:0
       (batch 0 [ (3, 0); (1, 0); (3, 2); (5, 4); (1, 1) ]));
  check "no acks left over" (expect 1 1 [ (0, [ 7 ]); (2, [ 8 ]) ])
    (run_batch ~seqno:1 (batch 1 [ (0, 7); (2, 8) ]));
  ignore (Exec.rollback_to exec ~seqno:0);
  Alcotest.(check int) "rolled back" 0 (Exec.k_exec exec);
  check "none left over after rollback" (expect 1 2 [ (1, [ 3 ]); (4, [ 1 ]) ])
    (run_batch ~seqno:1 (batch 2 [ (4, 1); (1, 3) ]))

(* Every replica answering for one batch sends the same ack lists: the
   first one builds them, the others reuse them. *)
let test_exec_acks_shared () =
  let b =
    Message.batch_of_requests ~materialize:false
      (List.map
         (fun (hub, client) ->
           { Message.hub; client; rid = 0; op = None; submitted = 0.0 })
         [ (2, 0); (0, 1); (2, 3) ])
  in
  let acks_sent () =
    let engine, net, ctx = make_ctx_net () in
    let cfg = Ctx.config ctx in
    let got = ref [] in
    for hub = 0 to cfg.Config.n_hubs - 1 do
      Network.set_handler net (cfg.Config.n + hub) (fun ~src:_ ~bytes:_ msg ->
          match msg with
          | Message.Exec_response { acks; _ } -> got := (hub, acks) :: !got
          | _ -> ())
    done;
    Exec.offer (Exec.create ~ctx ()) ~seqno:0 ~view:0 ~batch:b
      ~proof:Block.No_proof;
    Engine.run engine;
    List.sort compare !got
  in
  let first = acks_sent () and second = acks_sent () in
  Alcotest.(check (list (pair int (list (pair int int)))))
    "acks per hub"
    [ (0, [ (1, 0) ]); (2, [ (3, 0); (0, 0) ]) ]
    first;
  List.iter2
    (fun (_, a) (_, b) -> Alcotest.(check bool) "same list" true (a == b))
    first second

(* The words one broadcast allocates do not grow with n: it submits one
   Io job, and the job walks the replica ids. Only the call is measured;
   the engine runs the jobs, and their sends, outside the count. *)
let test_broadcast_words_flat () =
  Poe_obs.Trace.clear ();
  Poe_obs.Metrics.clear_current ();
  let words_per_broadcast n =
    let config = Config.make ~n () in
    let engine, _, ctx = make_ctx_net ~config:(Some config) () in
    let calls = 1000 in
    let round () =
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        Ctx.broadcast_replicas ctx ~bytes:Message.Wire.vote
          (Message.State_request { from_seqno = 0 })
      done;
      let words = Gc.minor_words () -. before in
      Engine.run engine;
      words /. float_of_int calls
    in
    ignore (round ());
    round ()
  in
  let w4 = words_per_broadcast 4 and w32 = words_per_broadcast 32 in
  if w32 > w4 +. 0.01 then
    Alcotest.failf "%.2f words per broadcast at n = 32, %.2f at n = 4" w32 w4

(* ------------------------------------------------------------------ *)
(* Client hub                                                          *)

module Hub = R.Hub_core

let make_hub ~clients ~quorum ~on_timeout =
  let config =
    Config.make ~n:4 ~n_hubs:1 ~clients_per_hub:clients ~request_timeout:0.3
      ~client_bundle_delay:0.001 ()
  in
  let engine = Engine.create ~seed:3 () in
  let net =
    Network.create ~engine ~n_nodes:5 ~latency:(Latency.Constant 0.001) ()
  in
  let sent = ref [] in
  for id = 0 to 3 do
    Network.set_handler net id (fun ~src:_ ~bytes:_ msg ->
        match msg with
        | Message.Client_request_bundle reqs -> sent := reqs @ !sent
        | _ -> ())
  done;
  let hooks =
    { Hub.quorum; send_mode = Hub.To_primary; on_timeout; on_message = None }
  in
  let hub =
    Hub.create ~hub:0 ~config ~engine ~net
      ~stats:(Stats.create ~warmup:0.0 ~measure:100.0)
      ~rng:(Rng.create 11) ~workload:None ~hooks ()
  in
  Hub.start hub;
  Engine.run ~until:0.05 engine;
  (engine, hub, List.rev !sent)

let ack hub ~replica acks =
  Hub.on_network_message hub ~src:replica
    (Message.Exec_response
       {
         view = 0;
         seqno = 0;
         replica;
         batch_digest = "d";
         result_digest = "d";
         acks;
       })

let test_hub_ignores_unknown_acks () =
  let _, hub, _ = make_hub ~clients:3 ~quorum:1 ~on_timeout:None in
  Alcotest.(check int) "three outstanding" 3 (Hub.outstanding hub);
  ack hub ~replica:0 [ (-1, 0); (3, 0); (max_int, 0); (0, 1); (1, -1) ];
  Alcotest.(check int) "still outstanding" 3 (Hub.outstanding hub);
  Alcotest.(check int) "none completed" 0 (Hub.completed hub);
  (* An idle client's empty slot carries rid -1: an ack naming it must
     not complete anything either. *)
  Hub.pause hub;
  ack hub ~replica:0 [ (0, 0) ];
  Alcotest.(check int) "client 0 idle" 2 (Hub.outstanding hub);
  ack hub ~replica:1 [ (0, -1); (0, 0) ];
  Alcotest.(check int) "idle slot stays idle" 2 (Hub.outstanding hub);
  Alcotest.(check int) "one completed" 1 (Hub.completed hub)

type hub_step = Ack of int * int * int | Advance of int

let print_hub_steps steps =
  String.concat "; "
    (List.map
       (function
         | Ack (c, d, r) -> Printf.sprintf "ack c%d rid%+d r%d" c d r
         | Advance ms -> Printf.sprintf "advance %dms" ms)
       steps)

(* Acks for clients -1..4 of a 4-client hub (current rid, or one off) from
   replicas 0-2, and clock advances that cross sweeps and deadlines. *)
let hub_steps =
  let open QCheck.Gen in
  list_size (int_range 1 60)
    (frequency
       [
         ( 3,
           map3
             (fun c d r -> Ack (c, d, r))
             (int_range (-1) 4) (int_range (-1) 1) (int_range 0 2) );
         (1, map (fun ms -> Advance ms) (int_range 1 400));
       ])

(* The reference: per client, the outstanding rid, its first-sent time,
   the replicas that acked it, and the deadline its last timeout armed. *)
type model_req = {
  m_rid : int;
  m_first_sent : float;
  mutable m_acked : int list;
  mutable m_retries : int;
  mutable m_deadline : float option;
}

let hub_model_qcheck =
  let clients = 4 and quorum = 2 and timeout = 0.3 in
  (* Hub_core's sweep period, and the largest first deadline its jitter
     can arm. *)
  let interval = Float.max 0.05 (timeout /. 6.0) in
  let first_deadline_max m = m.m_first_sent +. (1.25 *. timeout) in
  let fresh rid first_sent =
    { m_rid = rid; m_first_sent = first_sent; m_acked = []; m_retries = 0;
      m_deadline = None }
  in
  QCheck.Test.make ~name:"hub matches a reference closed loop" ~count:300
    (QCheck.make ~print:print_hub_steps hub_steps) (fun steps ->
      (* (sweep time, client, rid, retries, re-armed deadline) per timeout *)
      let handled = ref [] in
      let on_timeout h (rs : Hub.request_state) =
        handled :=
          ( Hub.now h, rs.req.Message.client, rs.req.Message.rid, rs.retries,
            rs.next_deadline )
          :: !handled
      in
      let engine, hub, sent =
        make_hub ~clients ~quorum ~on_timeout:(Some on_timeout)
      in
      let model = Array.make clients (fresh 0 0.0) in
      List.iter
        (fun (r : Message.request) -> model.(r.client) <- fresh r.rid r.submitted)
        sent;
      let completed = ref 0 in
      let ok = ref (List.length sent = clients) in
      let expect b = if not b then ok := false in
      let check_state () =
        let now = Engine.now engine in
        expect (Hub.outstanding hub = clients);
        expect (Hub.completed hub = !completed);
        let oldest =
          Array.fold_left
            (fun acc m -> Float.max acc (now -. m.m_first_sent))
            0.0 model
        in
        expect (Hub.oldest_outstanding_age hub ~now = oldest)
      in
      let apply = function
        | Ack (c, d, replica) ->
            let valid = c >= 0 && c < clients in
            let rid = if valid then model.(c).m_rid + d else d in
            ack hub ~replica [ (c, rid) ];
            if valid && d = 0 && not (List.mem replica model.(c).m_acked) then begin
              let m = model.(c) in
              m.m_acked <- replica :: m.m_acked;
              if List.length m.m_acked >= quorum then begin
                incr completed;
                model.(c) <- fresh (m.m_rid + 1) (Engine.now engine)
              end
            end
        | Advance ms ->
            let until = Engine.now engine +. (float_of_int ms /. 1000.0) in
            handled := [];
            Engine.run ~until engine;
            let seen = Hashtbl.create 8 in
            List.iter
              (fun (at, c, rid, retries, deadline) ->
                let m = model.(c) in
                (* the outstanding request, once per sweep, not early *)
                expect (rid = m.m_rid);
                expect (not (Hashtbl.mem seen (at, c)));
                Hashtbl.replace seen (at, c) ();
                (match m.m_deadline with
                | Some d -> expect (at >= d)
                | None -> expect (at >= m.m_first_sent +. timeout));
                m.m_retries <- m.m_retries + 1;
                expect (retries = m.m_retries);
                m.m_deadline <- Some deadline)
              (List.rev !handled);
            (* Not missed: the last sweep ran after [until - interval], so
               every request still unhandled has a later deadline. *)
            Array.iter
              (fun m ->
                let d =
                  Option.value m.m_deadline ~default:(first_deadline_max m)
                in
                expect (d > until -. interval -. 1e-9))
              model
      in
      List.iter
        (fun step ->
          apply step;
          check_state ())
        steps;
      !ok)

(* ------------------------------------------------------------------ *)
(* Executed log                                                        *)

type log_op = Execute of int | Rollback of int | Snapshot of int

let print_log_ops ops =
  String.concat "; "
    (List.map
       (function
         | Execute k -> Printf.sprintf "execute %d" k
         | Rollback k -> Printf.sprintf "rollback -%d" k
         | Snapshot k -> Printf.sprintf "snapshot +%d" k)
       ops)

(* Every script starts with 3000 executions, so the log spans several
   1024-entry chunks before rollbacks cut back across their boundaries. *)
let log_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun k -> Execute k) (int_range 1 1500));
        (3, map (fun k -> Rollback k) (int_bound 2100));
        (1, map (fun k -> Snapshot k) (int_bound 50));
      ]
  in
  map (fun ops -> Execute 3000 :: ops) (list_size (int_bound 10) op)

(* The executed log against a newest-first list of (seqno, digest). *)
let executed_log_qcheck =
  QCheck.Test.make ~name:"executed log matches a list" ~count:40
    (QCheck.make ~print:print_log_ops log_ops) (fun ops ->
      let _, ctx = make_ctx () in
      let model = ref [] and next = ref 0 in
      let agrees () =
        let expected = List.rev !model in
        let iterated = ref [] in
        Ctx.iter_executed ctx (fun s d -> iterated := (s, d) :: !iterated);
        Ctx.executed_digests ctx = expected
        && List.rev !iterated = expected
        && Ctx.executed_count ctx = List.length expected
      in
      List.for_all
        (fun op ->
          (match op with
          | Execute k ->
              for _ = 1 to k do
                let batch = batch_of !next in
                ignore
                  (Ctx.execute_batch ctx ~view:0 ~seqno:!next batch
                     ~proof:Block.No_proof);
                model := (!next, batch.Message.digest) :: !model;
                incr next
              done
          | Rollback k ->
              let seqno = !next - 1 - k in
              ignore (Ctx.rollback_to ctx ~seqno);
              model := List.filter (fun (s, _) -> s <= seqno) !model;
              next := max 0 (seqno + 1)
          | Snapshot k ->
              let upto = !next - 1 + k in
              Ctx.install_snapshot ctx ~upto ~rows:[] ~blocks:[];
              model := [];
              next := upto + 1);
          agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Rid table                                                           *)

module Rid_table = R.Rid_table

type rid_op = Incr | Decr | Add | Remove | Reset

(* The reference: the request-keyed hash table the rid table replaced,
   with the update rules of the three tables it stands in for. *)
let model_apply model op key =
  let c = Option.value (Hashtbl.find_opt model key) ~default:0 in
  match op with
  | Incr -> Hashtbl.replace model key (c + 1)
  | Decr when c > 1 -> Hashtbl.replace model key (c - 1)
  | Decr | Remove -> Hashtbl.remove model key
  | Add -> if c = 0 then Hashtbl.replace model key 1
  | Reset -> Hashtbl.reset model

(* 3 hubs of 3 clients. Hub 3 and clients 3-4 have no slot. Updates come
   singly (any rid) or as one client's run of consecutive rids, the
   closed-loop pattern the table is built for. *)
let rid_steps =
  let open QCheck.Gen in
  let req = triple (int_bound 3) (int_bound 4) (int_bound 9) in
  let single =
    map2
      (fun op (hub, client, rid) -> [ (op, hub, client, rid) ])
      (frequency
         [ (6, return Incr); (3, return Decr); (2, return Add);
           (2, return Remove); (1, return Reset) ])
      req
  in
  let run =
    map2
      (fun (hub, client, rid) len ->
        List.init len (fun k -> (Incr, hub, client, rid + k)))
      req (int_range 1 6)
  in
  map List.concat (list_size (int_bound 40) (frequency [ (3, single); (1, run) ]))

let print_rid_steps steps =
  String.concat "; "
    (List.map
       (fun (op, hub, client, rid) ->
         Printf.sprintf "%s %d.%d.%d"
           (match op with
           | Incr -> "incr"
           | Decr -> "decr"
           | Add -> "add"
           | Remove -> "remove"
           | Reset -> "reset")
           hub client rid)
       steps)

let rid_table_qcheck =
  [
    QCheck.Test.make ~name:"counts match a hash-table multiset" ~count:500
      (QCheck.make ~print:print_rid_steps rid_steps) (fun steps ->
        let table =
          Rid_table.create (Config.make ~n:4 ~n_hubs:3 ~clients_per_hub:3 ())
        in
        let model = Hashtbl.create 16 in
        let req hub client rid =
          { Message.hub; client; rid; op = None; submitted = 0.0 }
        in
        List.for_all
          (fun (op, hub, client, rid) ->
            let r = req hub client rid in
            (match op with
            | Incr -> Rid_table.incr table r
            | Decr -> Rid_table.decr table r
            | Add -> Rid_table.add table r
            | Remove -> Rid_table.remove table r
            | Reset -> Rid_table.reset table);
            model_apply model op (Message.request_key r);
            List.for_all
              (fun hub ->
                List.for_all
                  (fun client ->
                    List.for_all
                      (fun rid ->
                        let r = req hub client rid in
                        let c =
                          Option.value ~default:0
                            (Hashtbl.find_opt model (Message.request_key r))
                        in
                        Rid_table.count table r = c
                        && Rid_table.mem table r = (c >= 1))
                      (List.init 16 Fun.id))
                  (List.init 5 Fun.id))
              (List.init 4 Fun.id))
          steps);
  ]

(* ------------------------------------------------------------------ *)
(* Quorum                                                              *)

module Quorum = R.Quorum

type quorum_case = { q_n : int; q_last_wins : bool; q_votes : (int * string) list }

let print_quorum_case c =
  Printf.sprintf "n=%d %s: %s" c.q_n
    (if c.q_last_wins then "last-wins" else "first-wins")
    (String.concat "; "
       (List.map (fun (src, d) -> Printf.sprintf "%d:%s" src d) c.q_votes))

(* Votes from ids -2 .. n+1 (so some are out of range), over three digests
   with one favoured, so duplicates, conflicts and quorums all occur. *)
let quorum_cases =
  let open QCheck.Gen in
  oneofl [ 4; 7; 16 ] >>= fun n ->
  bool >>= fun last_wins ->
  let vote =
    pair (int_range (-2) (n + 1))
      (frequency [ (6, return "a"); (2, return "b"); (1, return "c") ])
  in
  map
    (fun votes -> { q_n = n; q_last_wins = last_wins; q_votes = votes })
    (list_size (int_range 0 (3 * n)) vote)

(* The code [Quorum.best] replaced in SBFT's collector: the distinct
   digests sorted, each recounted, the first of the highest count kept. *)
let sort_and_recount votes =
  List.sort_uniq compare (List.map snd votes)
  |> List.fold_left
       (fun acc d ->
         let count = List.length (List.filter (fun (_, v) -> v = d) votes) in
         match acc with Some (_, c) when c >= count -> acc | _ -> Some (d, count))
       None

(* Quorum against an association list from replica id to its vote. *)
let quorum_qcheck =
  QCheck.Test.make ~name:"quorum matches an association list" ~count:1000
    (QCheck.make ~print:print_quorum_case quorum_cases) (fun c ->
      let n = c.q_n in
      let nf = Config.nf (Config.make ~n ()) in
      let q = Quorum.create n in
      let model = ref [] in
      List.for_all
        (fun (src, digest) ->
          let expected =
            if src < 0 || src >= n then Quorum.Out_of_range
            else if List.mem_assoc src !model then Quorum.Duplicate
            else Quorum.Added
          in
          let outcome =
            if c.q_last_wins then Quorum.replace q ~src ~digest
            else Quorum.add q ~src ~digest
          in
          (match expected with
          | Quorum.Added -> model := (src, digest) :: !model
          | Quorum.Duplicate when c.q_last_wins ->
              model := (src, digest) :: List.remove_assoc src !model
          | Quorum.Duplicate | Quorum.Out_of_range -> ());
          let votes = List.sort compare !model in
          let voters_of d =
            List.filter_map (fun (id, v) -> if v = d then Some id else None) votes
          in
          let best_ok =
            match sort_and_recount votes with
            | Some (_, count) as b when count >= nf -> Quorum.best q = b
            | Some _ | None -> true
          in
          outcome = expected
          && Quorum.size q = List.length votes
          && Quorum.signers q = List.map fst votes
          && List.for_all
               (fun d ->
                 Quorum.count q d = List.length (voters_of d)
                 && Quorum.signers ~digest:d q = voters_of d)
               [ "a"; "b"; "c"; "z" ]
          && best_ok)
        c.q_votes)

let () =
  Alcotest.run "runtime"
    [
      ( "config",
        [
          Alcotest.test_case "quorums" `Quick test_config_quorums;
          Alcotest.test_case "primary rotation" `Quick
            test_config_primary_rotation;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ("cost", [ Alcotest.test_case "schemes and helpers" `Quick test_cost_schemes ]);
      ( "server",
        [
          Alcotest.test_case "single lane fifo" `Quick test_server_single_lane_fifo;
          Alcotest.test_case "parallel lanes" `Quick test_server_parallel_lanes;
          Alcotest.test_case "backlog" `Quick test_server_backlog;
          Alcotest.test_case "utilization is work done" `Quick
            test_server_utilization_is_work_done;
          Alcotest.test_case "resources independent" `Quick
            test_server_resources_independent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "measurement window" `Quick test_stats_window;
          Alcotest.test_case "bucket series" `Quick test_stats_buckets;
          Alcotest.test_case "bucket boundary at upto" `Quick
            test_stats_bucket_boundary;
          Alcotest.test_case "empty window rates" `Quick
            test_stats_empty_window;
        ] );
      ( "message",
        [
          Alcotest.test_case "wire sizes" `Quick test_wire_sizes;
          Alcotest.test_case "batch digests" `Quick test_batch_of_requests;
          Alcotest.test_case "materialized digest known answer" `Quick
            test_materialized_digest_known_answer;
        ]
        @ List.map QCheck_alcotest.to_alcotest batch_digest_qcheck );
      ( "pipeline",
        [
          Alcotest.test_case "full and partial batches" `Quick
            test_pipeline_full_batch;
          Alcotest.test_case "dedup" `Quick test_pipeline_dedup;
          Alcotest.test_case "window" `Quick test_pipeline_window;
          Alcotest.test_case "drain" `Quick test_pipeline_drain;
          Alcotest.test_case "superseded batch timer does nothing" `Quick
            test_pipeline_superseded_timer;
        ] );
      ( "exec_engine",
        [
          Alcotest.test_case "in-order execution" `Quick test_exec_in_order;
          Alcotest.test_case "summaries and gc" `Quick
            test_exec_was_executed_and_summaries;
          Alcotest.test_case "rollback (materialized)" `Quick
            test_exec_rollback_materialized;
          Alcotest.test_case "force_adopt gap" `Quick test_exec_force_adopt_gap;
          Alcotest.test_case "rolled-back duplicate (materialized)" `Quick
            test_exec_rolled_back_duplicate;
          Alcotest.test_case "one reply per hub, buckets emptied" `Quick
            test_exec_reply_fan_out;
          Alcotest.test_case "replicas share a batch's acks" `Quick
            test_exec_acks_shared;
        ] );
      ( "hub",
        Alcotest.test_case "unknown and stale acks ignored" `Quick
          test_hub_ignores_unknown_acks
        :: List.map QCheck_alcotest.to_alcotest [ hub_model_qcheck ] );
      ( "replica_ctx",
        [
          Alcotest.test_case "broadcast words flat in n" `Quick
            test_broadcast_words_flat;
          QCheck_alcotest.to_alcotest executed_log_qcheck;
        ] );
      ("rid_table", List.map QCheck_alcotest.to_alcotest rid_table_qcheck);
      ("quorum", [ QCheck_alcotest.to_alcotest quorum_qcheck ]);
    ]
