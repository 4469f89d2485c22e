module R = Poe_runtime
module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Latency = Poe_simnet.Latency
module Rng = Poe_simnet.Rng
module Config = R.Config
module Cost = R.Cost
module Message = R.Message
module Server = R.Server
module Stats = R.Stats
module Hub = R.Hub_core

type result = { throughput : float; latency : float }

(* A one-node "protocol": answer every request directly. Uses the same hub
   machinery as the real protocols so client-side accounting is
   identical. *)
let run ?(cost = Cost.default) ?(clients = 120_000) ?(warmup = 0.5)
    ?(measure = 2.0) ~execute () =
  let n_hubs = 16 in
  let config =
    (* No signatures in this raw characterization run — consensus (and
       authentication) is exactly what is being excluded. *)
    Config.make ~n:4 ~batch_size:1 ~n_hubs ~clients_per_hub:(clients / n_hubs)
      ~client_scheme:Config.Auth_none ~request_timeout:1e6 ()
  in
  let engine = Engine.create ~seed:7 () in
  let net =
    Network.create ~engine ~n_nodes:(config.Config.n + n_hubs)
      ~latency:(Latency.Lognormalish { base = 0.0003; jitter = 0.00015 })
      ~bandwidth_bytes_per_s:(Some 1.25e9) ()
  in
  let stats = Stats.create ~warmup ~measure in
  let rng = Rng.split (Engine.rng engine) in
  (* The primary: two independent lanes, no ordering (§IV-B). *)
  let server = Server.create ~engine ~io_lanes:2 ~batcher_lanes:1 ~worker_lanes:1 ~execute_lanes:1 () in
  let answer (req : Message.request) =
    let per_req =
      cost.Cost.msg_in
      +. Cost.auth_verify cost config.Config.client_scheme
      +. (if execute then cost.Cost.exec_per_txn else 0.0)
      +. cost.Cost.msg_out
    in
    Server.submit server Server.Io ~cost:per_req (fun () ->
        Network.send net ~src:0
          ~dst:(config.Config.n + req.Message.hub)
          ~bytes:(Message.Wire.response config ~per_reqs:1)
          (Message.Exec_response
             {
               view = 0;
               seqno = 0;
               replica = 0;
               batch_digest = "ub";
               result_digest = "ub";
               acks = [ (req.Message.client, req.Message.rid) ];
             }))
  in
  Network.set_handler net 0 (fun ~src:_ ~bytes:_ msg ->
      match msg with
      | Message.Client_request req -> answer req
      | Message.Client_request_bundle reqs -> List.iter answer reqs
      | _ -> ());
  let hooks =
    { Hub.quorum = 1; send_mode = Hub.To_primary; on_timeout = None; on_message = None }
  in
  let hubs =
    Array.init n_hubs (fun h ->
        let hub =
          Hub.create ~hub:h ~config ~engine ~net ~stats ~rng:(Rng.split rng)
            ~workload:None ~hooks ()
        in
        Network.set_handler net (config.Config.n + h) (fun ~src ~bytes:_ msg ->
            Hub.on_network_message hub ~src msg);
        hub)
  in
  Engine.schedule engine ~delay:0.0 (fun () -> Array.iter Hub.start hubs);
  Engine.run ~until:(warmup +. measure) engine;
  { throughput = Stats.throughput stats; latency = Stats.avg_latency stats }
