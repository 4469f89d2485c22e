(* Microbenchmarks: host ns/op and minor words/op of single public calls
   into each simulator layer, independent of any workload. Each op also
   reports how many engine events, network sends and SHA-256 blocks one
   call causes, so a layer's own cost can be told apart from the cost of
   the layers it calls (see [own_ns]). *)

module R = Poe_runtime
module Engine = Poe_simnet.Engine
module Event_queue = Poe_simnet.Event_queue
module Network = Poe_simnet.Network
module Latency = Poe_simnet.Latency
module Rng = Poe_simnet.Rng
module Message = R.Message
module Config = R.Config
module Kv = Poe_store.Kv_store
module Ycsb = Poe_store.Ycsb
module Threshold = Poe_crypto.Threshold
module Sha256 = Poe_crypto.Sha256
module Trace = Poe_obs.Trace
module Prof = Poe_prof.Prof

type result = {
  op : string;  (** [<layer>.<op>] *)
  ns : float;  (** median over rounds *)
  words : float;
  events : float;  (** per op, from the [Prof] counters *)
  msgs : float;
  sha_blocks : float;
}

(* Accumulates the timed regions of one round. Only the region is timed,
   so an op can prepare its inputs (or undo its effect) untimed. *)
type acc = {
  mutable ns_sum : float;
  mutable words_sum : float;
  mutable events_sum : int;
  mutable msgs_sum : int;
  mutable sha_sum : int;
}

let region acc f =
  let c0 = Prof.counters () in
  let w0 = Gc.minor_words () in
  let t0 = Report.now_ns () in
  f ();
  let t1 = Report.now_ns () in
  let w1 = Gc.minor_words () in
  let c1 = Prof.counters () in
  let d ix = snd c1.(ix) - snd c0.(ix) in
  acc.ns_sum <- acc.ns_sum +. Int64.to_float (Int64.sub t1 t0);
  acc.words_sum <- acc.words_sum +. (w1 -. w0);
  acc.events_sum <- acc.events_sum + d Prof.ix_events_popped;
  acc.msgs_sum <- acc.msgs_sum + d Prof.ix_msgs_sent;
  acc.sha_sum <- acc.sha_sum + d Prof.ix_sha256_blocks

let fresh () =
  { ns_sum = 0.0; words_sum = 0.0; events_sum = 0; msgs_sum = 0; sha_sum = 0 }

(* [prepare ()] builds an op's state once and returns [batch], where
   [batch acc k] performs [k] more ops, timing them through [region]. The
   op count grows until one round lasts [round_s]; then five rounds run
   and the median round gives ns/op. *)
let measure ~round_s op prepare =
  Report.span ("micro." ^ op) @@ fun () ->
  let batch = prepare () in
  let target = round_s *. 1e9 in
  let rec calibrate k =
    let acc = fresh () in
    batch acc k;
    if acc.ns_sum >= target || k >= 1 lsl 26 then k
    else
      let grow = Float.min 100.0 (Float.max 2.0 (1.2 *. target /. Float.max 1.0 acc.ns_sum)) in
      calibrate (int_of_float (float_of_int k *. grow))
  in
  let k = calibrate 1 in
  let rounds = List.init 5 (fun _ -> let acc = fresh () in batch acc k; acc) in
  let ops = float_of_int (5 * k) in
  let total f = float_of_int (List.fold_left (fun s a -> s + f a) 0 rounds) /. ops in
  {
    op;
    ns = Report.median (List.map (fun a -> a.ns_sum /. float_of_int k) rounds);
    words = List.fold_left (fun s a -> s +. a.words_sum) 0.0 rounds /. ops;
    events = total (fun a -> a.events_sum);
    msgs = total (fun a -> a.msgs_sum);
    sha_blocks = total (fun a -> a.sha_sum);
  }

(* The simulator's engines run with thousands of pending events; these
   far-future ones keep the heap that deep without ever firing. *)
let depth = 16_384

let loaded_engine () =
  let e = Engine.create ~seed:1 () in
  for i = 1 to depth do
    ignore (Engine.schedule e ~delay:(1e6 +. float_of_int i) ignore)
  done;
  e

let delays = Array.init 4096 (fun i -> float_of_int ((i * 7919) mod 4096) *. 2.5e-7)

let event_queue_push_pop () =
  let q = Event_queue.create () in
  for i = 1 to depth do
    Event_queue.push q ~time:delays.(i land 4095) i
  done;
  fun acc k ->
    region acc (fun () ->
        for i = 1 to k do
          match Event_queue.pop q with
          | Some (time, v) -> Event_queue.push q ~time:(time +. delays.(i land 4095)) v
          | None -> assert false
        done)

let engine_schedule_step () =
  let e = loaded_engine () in
  fun acc k ->
    region acc (fun () ->
        for i = 1 to k do
          ignore (Engine.schedule e ~delay:delays.(i land 4095) ignore);
          ignore (Engine.step e)
        done)

let network_send_deliver () =
  let engine = loaded_engine () in
  let net =
    Network.create ~engine ~n_nodes:16
      ~latency:(Latency.Lognormalish { base = 0.0003; jitter = 0.00015 })
      ~bandwidth_bytes_per_s:(Some 1.25e9) ()
  in
  for id = 0 to 15 do
    Network.set_handler net id (fun ~src:_ ~bytes:_ () -> ())
  done;
  fun acc k ->
    region acc (fun () ->
        for i = 1 to k do
          Network.send net ~src:(i land 15) ~dst:((i + 1) land 15) ~bytes:250 ();
          ignore (Engine.step engine)
        done)

let server_submit ~cost () =
  let engine = loaded_engine () in
  let srv = R.Server.create ~engine () in
  fun acc k ->
    region acc (fun () ->
        for _ = 1 to k do
          R.Server.submit srv R.Server.Worker ~cost ignore;
          ignore (Engine.step engine)
        done)

(* One client machine with one logical client, talking to a stub primary
   that answers every request at once; the hub needs one reply. *)
let hub_round_trip () =
  let config = Config.make ~n:4 ~n_hubs:1 ~clients_per_hub:1 () in
  let engine = loaded_engine () in
  let net =
    Network.create ~engine ~n_nodes:5 ~latency:(Latency.Constant 0.0003) ()
  in
  let stats = R.Stats.create ~warmup:0.0 ~measure:1e9 in
  let hooks =
    { R.Hub_core.quorum = 1; send_mode = R.Hub_core.To_primary; on_timeout = None;
      on_message = None }
  in
  let hub =
    R.Hub_core.create ~hub:0 ~config ~engine ~net ~stats ~rng:(Rng.create 1)
      ~workload:None ~hooks ()
  in
  Network.set_handler net 4 (fun ~src ~bytes:_ msg ->
      R.Hub_core.on_network_message hub ~src msg);
  Network.set_handler net 0 (fun ~src ~bytes:_ msg ->
      match msg with
      | Message.Client_request_bundle reqs ->
          List.iter
            (fun (r : Message.request) ->
              Network.send net ~src:0 ~dst:src ~bytes:250
                (Message.Exec_response
                   { view = 0; seqno = r.rid; replica = 0; batch_digest = "";
                     result_digest = ""; acks = [ (r.client, r.rid) ] }))
            reqs
      | _ -> ());
  R.Hub_core.start hub;
  fun acc k ->
    region acc (fun () ->
        let target = R.Hub_core.completed hub + k in
        while R.Hub_core.completed hub < target do
          ignore (Engine.step engine)
        done)

let requests ~ops n =
  let ycsb = Ycsb.create Ycsb.small_profile and rng = Rng.create 1 in
  List.init n (fun client ->
      { Message.hub = 0; client; rid = 0;
        op = (if ops then Some (Ycsb.generate ycsb rng) else None);
        submitted = 0.0 })

let batch_of_100 ~materialize () =
  let reqs = requests ~ops:materialize 100 in
  fun acc k ->
    region acc (fun () ->
        for _ = 1 to k do
          ignore (Sys.opaque_identity (Message.batch_of_requests ~materialize reqs))
        done)

(* A materialized replica executing one 10-request batch at seqno 0 and
   rolling it back again, so the state never grows. [timed] picks which
   half is measured. *)
let exec_apply_rollback ~timed () =
  let config = Config.make ~n:4 ~materialize:true () in
  let engine = loaded_engine () in
  let net =
    Network.create ~engine ~n_nodes:(4 + config.Config.n_hubs)
      ~latency:(Latency.Constant 0.0003) ()
  in
  let ctx =
    R.Replica_ctx.create ~id:0 ~config ~cost:R.Cost.default ~engine ~net
      ~server:(R.Server.create ~engine ())
      ~stats:(R.Stats.create ~warmup:0.0 ~measure:1e9)
      ~rng:(Rng.create 1) ()
  in
  let exec = R.Exec_engine.create ~ctx ~respond:false () in
  let batch = Message.batch_of_requests ~materialize:true (requests ~ops:true 10) in
  let apply () =
    R.Exec_engine.offer exec ~seqno:0 ~view:0 ~batch ~proof:Poe_ledger.Block.No_proof;
    while R.Exec_engine.k_exec exec < 0 do
      ignore (Engine.step engine)
    done
  in
  let rollback () = ignore (R.Exec_engine.rollback_to exec ~seqno:(-1)) in
  fun acc k ->
    for _ = 1 to k do
      match timed with
      | `Apply -> region acc apply; rollback ()
      | `Rollback -> apply (); region acc rollback
    done

let kv_update () =
  let store = Kv.create () in
  Kv.load_ycsb store ~records:Ycsb.small_profile.records
    ~payload_bytes:Ycsb.small_profile.value_bytes;
  let keys = Array.init 1000 (Printf.sprintf "user%d") in
  fun acc k ->
    region acc (fun () ->
        for i = 1 to k do
          ignore (Kv.apply store (Kv.Update (keys.(i mod 1000), "value-0123456789")))
        done)

(* 4 KiB per digest; [ns] and [words] are divided by the blocks it takes. *)
let sha256_digest () =
  let msg = String.make 4096 'x' in
  fun acc k ->
    region acc (fun () ->
        for _ = 1 to k do
          ignore (Sys.opaque_identity (Sha256.digest msg))
        done)

let threshold_material () = Threshold.setup ~n:4 ~threshold:3 ~seed:"bench-e2e"

let threshold_sign_share () =
  let _, signers = threshold_material () in
  fun acc k ->
    region acc (fun () ->
        for _ = 1 to k do
          ignore (Sys.opaque_identity (Threshold.sign_share signers.(0) "bench-msg"))
        done)

let threshold_combine () =
  let scheme, signers = threshold_material () in
  let shares = List.init 3 (fun i -> Threshold.sign_share signers.(i) "bench-msg") in
  fun acc k ->
    region acc (fun () ->
        for _ = 1 to k do
          ignore (Sys.opaque_identity (Threshold.combine scheme ~msg:"bench-msg" shares))
        done)

let trace_instant ~on () acc k =
  if on then Trace.set (Trace.create ~capacity:4096 ()) else Trace.clear ();
  Fun.protect ~finally:Trace.clear (fun () ->
      region acc (fun () ->
          for _ = 1 to k do
            Trace.instant ~ts:0.0 ~node:0 ~cat:"bench" "instant"
          done))

let per_block r =
  { r with ns = r.ns /. r.sha_blocks; words = r.words /. r.sha_blocks; sha_blocks = 1.0 }

let run_all ~round_s =
  let m = measure ~round_s in
  [
    m "event_queue.push_pop" event_queue_push_pop;
    m "engine.schedule_step" engine_schedule_step;
    m "network.send_deliver" network_send_deliver;
    m "server.submit_zero" (server_submit ~cost:0.0);
    m "server.submit_cost" (server_submit ~cost:1e-6);
    m "hub.round_trip" hub_round_trip;
    m "batch.cost_100" (batch_of_100 ~materialize:false);
    m "batch.mat_100" (batch_of_100 ~materialize:true);
    m "exec.apply_10" (exec_apply_rollback ~timed:`Apply);
    m "exec.rollback_1" (exec_apply_rollback ~timed:`Rollback);
    m "kv.update" kv_update;
    per_block (m "sha256.block" sha256_digest);
    m "threshold.sign_share" threshold_sign_share;
    m "threshold.combine" threshold_combine;
    m "trace.instant_off" (trace_instant ~on:false);
    m "trace.instant_on" (trace_instant ~on:true);
  ]

let find results op =
  match List.find_opt (fun r -> String.equal r.op op) results with
  | Some r -> r
  | None -> invalid_arg ("no micro op " ^ op)

(* A layer's own ns per op: the op's time less what its engine events,
   network sends and SHA-256 blocks cost at their own micro rates, so
   that shares of several layers can be summed without counting a
   nested call twice. *)
let own_ns results op =
  let r = find results op in
  let engine = (find results "engine.schedule_step").ns in
  let send = find results "network.send_deliver" in
  let net = Float.max 0.0 (send.ns -. (send.events *. engine)) in
  match op with
  | "engine.schedule_step" | "sha256.block" -> r.ns
  | "network.send_deliver" -> net
  | _ ->
      let sha = (find results "sha256.block").ns in
      Float.max 0.0
        (r.ns -. (r.events *. engine) -. (r.msgs *. net) -. (r.sha_blocks *. sha))
