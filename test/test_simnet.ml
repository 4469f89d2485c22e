(* Tests for the discrete-event simulation substrate: RNG determinism, heap
   ordering, engine timers, latency models, and the network's delivery,
   crash, partition and accounting semantics. *)

module Rng = Poe_simnet.Rng
module Event_queue = Poe_simnet.Event_queue
module Engine = Poe_simnet.Engine
module Latency = Poe_simnet.Latency
module Network = Poe_simnet.Network
module Parked = Poe_simnet.Parked
module Prof = Poe_prof.Prof

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let root = Rng.create 1 in
  let child = Rng.split root in
  let x = Rng.int64 child in
  (* Replaying the root gives the same child. *)
  let root' = Rng.create 1 in
  let child' = Rng.split root' in
  Alcotest.(check int64) "split deterministic" x (Rng.int64 child')

let rng_qcheck =
  [
    QCheck.Test.make ~name:"int in bounds" ~count:1000
      (QCheck.pair QCheck.small_nat (QCheck.int_range 1 1_000_000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    QCheck.Test.make ~name:"float in bounds" ~count:1000 QCheck.small_nat
      (fun seed ->
        let rng = Rng.create seed in
        let v = Rng.float rng 3.5 in
        v >= 0.0 && v < 3.5);
    QCheck.Test.make ~name:"exponential non-negative" ~count:1000
      QCheck.small_nat (fun seed ->
        let rng = Rng.create seed in
        Rng.exponential rng ~mean:0.01 >= 0.0);
  ]

let test_rng_distributions () =
  let rng = Rng.create 7 in
  let nsamples = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to nsamples do
    sum := !sum +. Rng.exponential rng ~mean:2.0
  done;
  let mean = !sum /. float_of_int nsamples in
  Alcotest.(check bool) "exponential mean near 2" true
    (mean > 1.9 && mean < 2.1);
  let heads = ref 0 in
  for _ = 1 to nsamples do
    if Rng.bool rng ~p:0.3 then incr heads
  done;
  let frac = float_of_int !heads /. float_of_int nsamples in
  Alcotest.(check bool) "bernoulli near 0.3" true (frac > 0.28 && frac < 0.32)

(* The splitmix64 stream is part of every payload and trace: these are its
   first outputs for three seeds, recorded before the generator's state
   moved into unboxed bytes. Any change here reshuffles every run. *)
let test_rng_golden () =
  let golden =
    [
      ( 0,
        [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
          -537132696929009172L ],
        [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
          0x1.f1177150e499p-1 ],
        [ 651883; 588925; 886419; 135611 ] );
      ( 1,
        [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L;
          8196980753821780235L ],
        [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1;
          0x1.c7061a43b90b2p-2 ],
        [ 205616; 607129; 722647; 445058 ] );
      ( 42,
        [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
          6349198060258255764L ],
        [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
          0x1.607387fc392b8p-2 ],
        [ 818853; 723072; 690964; 563941 ] );
    ]
  in
  List.iter
    (fun (seed, int64s, floats, ints) ->
      let draws f = let r = Rng.create seed in List.init 4 (fun _ -> f r) in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check (list int64)) (name "int64") int64s (draws Rng.int64);
      Alcotest.(check (list (float 0.0))) (name "float") floats
        (draws (fun r -> Rng.float r 1.0));
      Alcotest.(check (list int)) (name "int") ints
        (draws (fun r -> Rng.int r 1_000_000)))
    golden

let test_rng_shuffle () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)

let test_heap_ordering () =
  let q = Event_queue.create () in
  let times = [ 5.0; 1.0; 3.0; 1.0; 0.5; 9.0; 3.0 ] in
  List.iteri (fun i t -> Event_queue.push q ~time:t i) times;
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (t, v) ->
        popped := (t, v) :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  let popped = List.rev !popped in
  Alcotest.(check int) "all popped" (List.length times) (List.length popped);
  let ts = List.map fst popped in
  Alcotest.(check bool) "sorted" true (List.sort compare ts = ts);
  (* Ties break by insertion order: the two 1.0s are indices 1 then 3, the
     two 3.0s are 2 then 6. *)
  let tie_values t = List.filter (fun (t', _) -> t' = t) popped |> List.map snd in
  Alcotest.(check (list int)) "fifo ties at 1.0" [ 1; 3 ] (tie_values 1.0);
  Alcotest.(check (list int)) "fifo ties at 3.0" [ 2; 6 ] (tie_values 3.0)

let heap_qcheck =
  [
    QCheck.Test.make ~name:"pops are globally sorted" ~count:200
      QCheck.(list (float_bound_inclusive 100.0))
      (fun times ->
        let q = Event_queue.create () in
        List.iteri (fun i t -> Event_queue.push q ~time:t i) times;
        let rec drain acc =
          match Event_queue.pop q with
          | Some (t, _) -> drain (t :: acc)
          | None -> List.rev acc
        in
        let out = drain [] in
        List.sort compare out = out
        && List.length out = List.length times);
  ]

let test_heap_interleaved () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:2.0 "b";
  Event_queue.push q ~time:1.0 "a";
  Alcotest.(check (option (pair (float 0.001) string))) "pop a" (Some (1.0, "a"))
    (Event_queue.pop q);
  Event_queue.push q ~time:0.5 "c";
  Alcotest.(check (option (pair (float 0.001) string))) "pop c" (Some (0.5, "c"))
    (Event_queue.pop q);
  Alcotest.(check int) "size" 1 (Event_queue.size q);
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q)

(* Model test: the heap against a list kept sorted by (time, insertion
   order), under random pushes, both pops and clears. Times come from a
   small set, so most of them tie. *)
type op = Push of float | Pop | Pop_min | Clear

let pp_op = function
  | Push t -> Printf.sprintf "push %g" t
  | Pop -> "pop"
  | Pop_min -> "pop_min"
  | Clear -> "clear"

let ops_arb ~pushes ~clears ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (pushes, map (fun k -> Push (float_of_int k *. 0.25)) (int_bound 15));
        (1, return Pop);
        (1, return Pop_min);
        (clears, return Clear);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    (ops op)

let queue_agrees_with_model ops =
  let q = Event_queue.create () in
  let model = ref [] (* (time, id), sorted; a new id loses every tie *) in
  let next_id = ref 0 in
  let pop_model () =
    match !model with
    | [] -> None
    | x :: rest ->
        model := rest;
        Some x
  in
  List.for_all
    (fun op ->
      let popped_ok =
        match op with
        | Push time ->
            let id = !next_id in
            incr next_id;
            Event_queue.push q ~time id;
            let later, earlier = List.partition (fun (t, _) -> t > time) !model in
            model := earlier @ ((time, id) :: later);
            true
        | Pop -> Event_queue.pop q = pop_model ()
        | Pop_min -> (
            match pop_model () with
            | None -> Event_queue.is_empty q
            | Some (_, id) -> Event_queue.pop_min q = id)
        | Clear ->
            Event_queue.clear q;
            model := [];
            true
      in
      let earliest = match !model with (t, _) :: _ -> Some t | [] -> None in
      popped_ok
      && Event_queue.size q = List.length !model
      && Event_queue.peek_time q = earliest
      && Event_queue.min_time q = Option.value earliest ~default:infinity)
    ops

let queue_model_qcheck =
  [
    QCheck.Test.make ~name:"matches a sorted-list model" ~count:300
      (ops_arb ~pushes:3 ~clears:1 QCheck.Gen.(list_size (int_bound 300)))
      queue_agrees_with_model;
    (* Push-heavy runs grow the arrays past 64 and 4096 entries, then
       refill the grown arrays after a clear. *)
    QCheck.Test.make ~name:"matches a sorted-list model while growing"
      ~count:3
      (ops_arb ~pushes:16 ~clears:0 (fun op ->
           QCheck.Gen.map
             (fun ops -> ops @ (Clear :: ops))
             (QCheck.Gen.list_repeat 6000 op)))
      queue_agrees_with_model;
  ]

let test_pop_min_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Event_queue.pop_min: empty queue") (fun () ->
      ignore (Event_queue.pop_min (Event_queue.create ())))

(* A popped (or cleared) payload must not stay reachable from the queue:
   fired closures keep their messages alive. The payloads are made in a
   separate function so no stack slot of the test holds them. *)
let[@inline never] push_tracked q weak i =
  let payload = Bytes.create 64 in
  Weak.set weak i (Some payload);
  Event_queue.push q ~time:(float_of_int i) payload

let test_queue_releases_payloads () =
  let q = Event_queue.create () in
  let weak = Weak.create 3 in
  for i = 0 to 2 do
    push_tracked q weak i
  done;
  ignore (Sys.opaque_identity (Event_queue.pop_min q));
  ignore (Sys.opaque_identity (Event_queue.pop q));
  Gc.full_major ();
  Alcotest.(check bool) "pop_min released" false (Weak.check weak 0);
  Alcotest.(check bool) "pop released" false (Weak.check weak 1);
  Alcotest.(check bool) "pending still held" true (Weak.check weak 2);
  Event_queue.clear q;
  Gc.full_major ();
  Alcotest.(check bool) "clear released" false (Weak.check weak 2)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_ordering_and_clock () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0.2 (fun () -> log := (`B, Engine.now e) :: !log);
  Engine.schedule e ~delay:0.1 (fun () -> log := (`A, Engine.now e) :: !log);
  Engine.schedule e ~delay:0.3 (fun () -> log := (`C, Engine.now e) :: !log);
  Engine.run e;
  match List.rev !log with
  | [ (`A, ta); (`B, tb); (`C, tc) ] ->
      Alcotest.(check (float 1e-9)) "ta" 0.1 ta;
      Alcotest.(check (float 1e-9)) "tb" 0.2 tb;
      Alcotest.(check (float 1e-9)) "tc" 0.3 tc
  | _ -> Alcotest.fail "wrong event order"

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule e ~delay:1.0 tick
  in
  Engine.schedule e ~delay:1.0 tick;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "5 ticks" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at limit" 5.5 (Engine.now e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let result = ref 0.0 in
  Engine.schedule e ~delay:1.0 (fun () ->
      Engine.schedule e ~delay:2.0 (fun () -> result := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "nested at 3.0" 3.0 !result

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let at = ref (-1.0) in
  Engine.schedule e ~delay:1.0 (fun () ->
      Engine.schedule e ~delay:(-5.0) (fun () -> at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clamped to now" 1.0 !at

(* Scheduling and firing an event allocates nothing but the boxed fire
   time handed to [Event_queue.push], two words: the queue hands that box
   back as the clock. [tick] is a closed function, so its closure is
   static, and it reschedules itself with a constant delay. *)
let alloc_engine = Engine.create ()
let ticks_left = ref 0

let rec tick () =
  if !ticks_left > 0 then begin
    decr ticks_left;
    Engine.schedule alloc_engine ~delay:1e-3 tick
  end

let test_engine_event_allocation () =
  Poe_obs.Trace.clear ();
  Poe_obs.Metrics.clear_current ();
  let events ~chains n =
    ticks_left := n;
    for _ = 1 to chains do
      Engine.schedule alloc_engine ~delay:0.0 tick
    done;
    Engine.run alloc_engine
  in
  (* The first round grows the queue's arrays. *)
  events ~chains:100 1_000;
  let fired = Engine.processed_events alloc_engine in
  let before = Gc.minor_words () in
  events ~chains:100 100_000;
  let words =
    (Gc.minor_words () -. before)
    /. float_of_int (Engine.processed_events alloc_engine - fired)
  in
  (* The slack covers the box [Gc.minor_words] returns. *)
  if words > 2.001 then
    Alcotest.failf "%.2f minor words per event, floor is 2 (one boxed float)"
      words

(* ------------------------------------------------------------------ *)
(* Parked calls                                                        *)

(* Every parked call runs once, with its own arguments, in event order,
   also when a running call parks another one into the slot it has just
   freed. *)
let test_parked_calls () =
  let e = Engine.create () in
  let ran = ref [] in
  let rec p =
    lazy
      (Parked.create (fun a b c d x ->
           ran := (a, b, c, d, x) :: !ran;
           if a < 3 then
             Engine.schedule e ~delay:10.0
               (Parked.park (Lazy.force p) (a + 1000) b c d (x ^ "'"))))
  in
  let p = Lazy.force p in
  for i = 0 to 99 do
    Engine.schedule e ~delay:(float_of_int (i mod 7))
      (Parked.park p i (2 * i) (3 * i) (-i) (string_of_int i))
  done;
  Engine.run e;
  let call i = (i, 2 * i, 3 * i, -i, string_of_int i) in
  let by_time =
    List.init 100 (fun i -> (i mod 7, i)) |> List.stable_sort compare
    |> List.map (fun (_, i) -> call i)
  in
  let reparked =
    List.map (fun i -> (i + 1000, 2 * i, 3 * i, -i, string_of_int i ^ "'")) [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "each call once, in event order" true
    (List.rev !ran = by_time @ reparked)

(* A storm of pending calls grows the slab; a light load afterwards
   gives that memory back. *)
let test_parked_memory_after_storm () =
  let e = Engine.create () in
  let p = Parked.create (fun _ _ _ _ () -> ()) in
  for i = 1 to 20_000 do
    Engine.schedule e ~delay:(float_of_int i *. 1e-6) (Parked.park p i 0 0 0 ())
  done;
  Engine.run e;
  let storm = Obj.reachable_words (Obj.repr p) in
  for _ = 1 to 100_000 do
    Engine.schedule e ~delay:1e-6 (Parked.park p 0 0 0 0 ());
    ignore (Engine.step e)
  done;
  let after = Obj.reachable_words (Obj.repr p) in
  if after * 50 > storm then
    Alcotest.failf "%d words after the storm, %d during it" after storm

(* ------------------------------------------------------------------ *)
(* Latency                                                             *)

let test_latency_models () =
  let rng = Rng.create 3 in
  Alcotest.(check (float 1e-12)) "constant" 0.01
    (Latency.sample (Latency.Constant 0.01) rng);
  for _ = 1 to 1000 do
    let v = Latency.sample (Latency.Uniform { lo = 0.001; hi = 0.002 }) rng in
    Alcotest.(check bool) "uniform in range" true (v >= 0.001 && v <= 0.002);
    let w =
      Latency.sample (Latency.Lognormalish { base = 0.0003; jitter = 0.0001 }) rng
    in
    Alcotest.(check bool) "lognormalish above base" true (w >= 0.0003)
  done;
  Alcotest.(check (float 1e-12)) "mean constant" 0.01 (Latency.mean (Latency.Constant 0.01));
  Alcotest.(check (float 1e-12)) "mean uniform" 0.0015
    (Latency.mean (Latency.Uniform { lo = 0.001; hi = 0.002 }))

(* ------------------------------------------------------------------ *)
(* Network                                                             *)

let mk_net ?(n = 3) ?(bandwidth = None) ?(loss = 0.0)
    ?(latency = Latency.Constant 0.01) () =
  let engine = Engine.create ~seed:11 () in
  let net =
    Network.create ~engine ~n_nodes:n ~latency
      ~bandwidth_bytes_per_s:bandwidth ~loss_probability:loss ()
  in
  (engine, net)

let test_network_delivery () =
  let engine, net = mk_net () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src ~bytes msg ->
      got := (src, bytes, msg, Engine.now engine) :: !got);
  Network.send net ~src:0 ~dst:1 ~bytes:100 "hello";
  Engine.run engine;
  match !got with
  | [ (src, bytes, msg, t) ] ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check int) "bytes" 100 bytes;
      Alcotest.(check string) "payload" "hello" msg;
      Alcotest.(check (float 1e-9)) "constant delay" 0.01 t
  | _ -> Alcotest.fail "expected one delivery"

let test_network_fifo_constant_latency () =
  let engine, net = mk_net () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ msg -> got := msg :: !got);
  List.iter (fun m -> Network.send net ~src:0 ~dst:1 ~bytes:10 m)
    [ "a"; "b"; "c"; "d" ];
  Engine.run engine;
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c"; "d" ] (List.rev !got)

let test_network_nic_serialization () =
  (* 1000 B/s NIC: two 500-byte messages sent back-to-back leave at 0.5 s
     and 1.0 s, arriving at +latency. *)
  let engine, net = mk_net ~bandwidth:(Some 1000.0) () in
  let times = ref [] in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ _ ->
      times := Engine.now engine :: !times);
  Network.send net ~src:0 ~dst:1 ~bytes:500 "x";
  Network.send net ~src:0 ~dst:1 ~bytes:500 "y";
  Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
      Alcotest.(check (float 1e-9)) "first" 0.51 t1;
      Alcotest.(check (float 1e-9)) "second serialized" 1.01 t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_network_crash () =
  let engine, net = mk_net () in
  let dropped0 = snd (Prof.counters ()).(Prof.ix_msgs_dropped) in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ _ -> incr got);
  Network.set_handler net 2 (fun ~src:_ ~bytes:_ _ -> incr got);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 ~bytes:10 "dropped";   (* dst crashed *)
  Network.send net ~src:1 ~dst:2 ~bytes:10 "suppressed"; (* src crashed *)
  Network.send net ~src:0 ~dst:2 ~bytes:10 "ok";
  Engine.run engine;
  Alcotest.(check int) "only the healthy pair delivered" 1 !got;
  Alcotest.(check int) "drops counted" 2
    (snd (Prof.counters ()).(Prof.ix_msgs_dropped) - dropped0);
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 ~bytes:10 "back";
  Engine.run engine;
  Alcotest.(check int) "recovered" 2 !got

let test_network_in_flight_survives_crash () =
  (* A message already on the wire still arrives after its sender crashes. *)
  let engine, net = mk_net () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ _ -> incr got);
  Network.send net ~src:0 ~dst:1 ~bytes:10 "in-flight";
  Engine.schedule engine ~delay:0.001 (fun () -> Network.crash net 0);
  Engine.run engine;
  Alcotest.(check int) "delivered" 1 !got

let test_network_partition () =
  let engine, net = mk_net () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ _ -> incr got);
  Network.block_link net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 ~bytes:10 "blocked";
  Engine.run engine;
  Alcotest.(check int) "blocked" 0 !got;
  Network.unblock_link net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 ~bytes:10 "open";
  Engine.run engine;
  Alcotest.(check int) "open again" 1 !got;
  Network.block_link net ~src:0 ~dst:1;
  Network.heal_partitions net;
  Network.send net ~src:0 ~dst:1 ~bytes:10 "healed";
  Engine.run engine;
  Alcotest.(check int) "healed" 2 !got

let test_network_loss () =
  let engine, net = mk_net ~n:2 ~loss:0.5 () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ _ -> incr got);
  for _ = 1 to 1000 do
    Network.send net ~src:0 ~dst:1 ~bytes:10 "maybe"
  done;
  Engine.run engine;
  Alcotest.(check bool) "roughly half lost" true (!got > 400 && !got < 600);
  Alcotest.(check int) "sent counts all" 1000 (Network.sent_messages net)

let test_network_accounting () =
  let engine, net = mk_net () in
  let c0 = Prof.counters () in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ _ -> ());
  Network.send net ~src:0 ~dst:1 ~bytes:100 "a";
  Network.send net ~src:0 ~dst:1 ~bytes:200 "b";
  Engine.run engine;
  Alcotest.(check int) "messages" 2 (Network.sent_messages net);
  Alcotest.(check int) "bytes" 300 (Network.sent_bytes net);
  let moved ix = snd (Prof.counters ()).(ix) - snd c0.(ix) in
  Alcotest.(check int) "prof messages" 2 (moved Prof.ix_msgs_sent);
  Alcotest.(check int) "prof bytes" 300 (moved Prof.ix_bytes_sent)

let test_deterministic_replay () =
  (* Two identically-seeded simulations produce identical delivery traces
     even with jittery latency. *)
  let trace seed =
    let engine = Engine.create ~seed () in
    let net =
      Network.create ~engine ~n_nodes:4
        ~latency:(Latency.Lognormalish { base = 0.001; jitter = 0.002 }) ()
    in
    let log = ref [] in
    for i = 0 to 3 do
      Network.set_handler net i (fun ~src ~bytes:_ msg ->
          log := (i, src, msg, Engine.now engine) :: !log)
    done;
    for i = 0 to 20 do
      Network.send net ~src:(i mod 4) ~dst:((i + 1) mod 4) ~bytes:10
        (string_of_int i)
    done;
    Engine.run engine;
    List.rev !log
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 5 = trace 5);
  Alcotest.(check bool) "different seed, different trace" true
    (trace 5 <> trace 6)

let () =
  Alcotest.run "simnet"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "distribution sanity" `Slow test_rng_distributions;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle;
          Alcotest.test_case "golden outputs" `Quick test_rng_golden;
        ]
        @ List.map QCheck_alcotest.to_alcotest rng_qcheck );
      ( "event_queue",
        [
          Alcotest.test_case "ordering with fifo ties" `Quick test_heap_ordering;
          Alcotest.test_case "interleaved push/pop" `Quick test_heap_interleaved;
          Alcotest.test_case "pop_min on empty" `Quick test_pop_min_empty;
          Alcotest.test_case "popped payloads are released" `Quick
            test_queue_releases_payloads;
        ]
        @ List.map QCheck_alcotest.to_alcotest (heap_qcheck @ queue_model_qcheck) );
      ( "engine",
        [
          Alcotest.test_case "ordering and clock" `Quick
            test_engine_ordering_and_clock;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "negative delay clamped" `Quick
            test_engine_negative_delay_clamped;
          Alcotest.test_case "events allocate only boxed floats" `Quick
            test_engine_event_allocation;
        ] );
      ( "parked",
        [
          Alcotest.test_case "calls run once, in order" `Quick test_parked_calls;
          Alcotest.test_case "memory given back after a storm" `Quick
            test_parked_memory_after_storm;
        ] );
      ("latency", [ Alcotest.test_case "models" `Quick test_latency_models ]);
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_network_delivery;
          Alcotest.test_case "fifo under constant latency" `Quick
            test_network_fifo_constant_latency;
          Alcotest.test_case "nic serialization" `Quick
            test_network_nic_serialization;
          Alcotest.test_case "crash and recover" `Quick test_network_crash;
          Alcotest.test_case "in-flight survives crash" `Quick
            test_network_in_flight_survives_crash;
          Alcotest.test_case "partitions" `Quick test_network_partition;
          Alcotest.test_case "loss" `Quick test_network_loss;
          Alcotest.test_case "accounting" `Quick test_network_accounting;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
        ] );
    ]
