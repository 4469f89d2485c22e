module R = Poe_runtime
module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Latency = Poe_simnet.Latency
module Rng = Poe_simnet.Rng
module Config = R.Config
module Cost = R.Cost
module Message = R.Message
module Stats = R.Stats
module Server = R.Server
module Ctx = R.Replica_ctx
module Hub = R.Hub_core
module Threshold = Poe_crypto.Threshold

type params = {
  config : Config.t;
  cost : Cost.t;
  latency : Latency.t;
  bandwidth : float option;
  loss : float;
  warmup : float;
  measure : float;
  autostart_clients : bool;
}

let default_params ~config =
  {
    config;
    cost = Cost.default;
    latency = Latency.Lognormalish { base = 0.0003; jitter = 0.00015 };
    bandwidth = Some 1.25e9;
    loss = 0.0;
    warmup = 1.0;
    measure = 3.0;
    autostart_clients = true;
  }

(* The lane sampler's histogram names (utilization, queue depth), as
   literals so a sample builds no string. *)
let lane_histograms = function
  | Server.Io -> ("lane.io.utilization", "lane.io.queue_depth")
  | Server.Batcher -> ("lane.batcher.utilization", "lane.batcher.queue_depth")
  | Server.Worker -> ("lane.worker.utilization", "lane.worker.queue_depth")
  | Server.Execute -> ("lane.execute.utilization", "lane.execute.queue_depth")

module Make (P : R.Protocol_intf.S) = struct
  type t = {
    params : params;
    engine : Engine.t;
    net : Message.t Network.t;
    stats : Stats.t;
    replicas : P.replica array;
    hubs : Hub.t array;
  }

  let build params =
    Poe_prof.Prof.with_region "build" @@ fun () ->
    let cfg = params.config in
    let n = cfg.Config.n in
    let engine = Engine.create ~seed:cfg.Config.seed () in
    let net =
      Network.create ~engine ~n_nodes:(n + cfg.Config.n_hubs)
        ~latency:params.latency ~bandwidth_bytes_per_s:params.bandwidth
        ~loss_probability:params.loss ()
    in
    let stats = Stats.create ~warmup:params.warmup ~measure:params.measure in
    let root_rng = Rng.split (Engine.rng engine) in
    (* Real threshold keys only when the run materializes state; cost-only
       runs charge the crypto without computing it. *)
    let threshold_material =
      if cfg.Config.materialize && cfg.Config.replica_scheme = Config.Auth_threshold
      then
        let scheme, signers =
          Threshold.setup ~n ~threshold:(Config.nf cfg)
            ~seed:(Printf.sprintf "cluster-%d" cfg.Config.seed)
        in
        Some (scheme, signers)
      else None
    in
    let replicas =
      Array.init n (fun id ->
          let server = Server.create ~engine ~node:id () in
          let threshold =
            Option.map (fun (scheme, signers) -> (scheme, signers.(id)))
              threshold_material
          in
          let ctx =
            Ctx.create ~id ~config:cfg ~cost:params.cost ~engine ~net ~server
              ~stats ~rng:(Rng.split root_rng) ?threshold ()
          in
          P.create_replica ctx)
    in
    (* Input threads: charge authentication and handling on the Io lanes,
       then run the protocol handler. As in [Ctx.work], the job checks
       that the replica is still alive; it is a parked call, so a
       delivered message allocates no closure. *)
    Array.iteri
      (fun id replica ->
        let ctx = P.ctx replica in
        let server = Ctx.server ctx in
        let input =
          Poe_simnet.Parked.create (fun src _ _ _ msg ->
              if Ctx.alive ctx then P.on_message replica ~src msg)
        in
        Network.set_handler net id (fun ~src ~bytes msg ->
            if Ctx.alive ctx then begin
              let cpu =
                P.receive_cost ~src cfg params.cost msg
                +. (float_of_int bytes *. params.cost.Cost.msg_per_byte)
              in
              Server.submit server Server.Io ~cost:cpu
                (Poe_simnet.Parked.park input src 0 0 0 msg)
            end))
      replicas;
    let workload =
      if cfg.Config.materialize then
        Some (Poe_store.Ycsb.create Poe_store.Ycsb.small_profile)
      else None
    in
    let hubs =
      Array.init cfg.Config.n_hubs (fun h ->
          let hub =
            Hub.create ~hub:h ~config:cfg ~engine ~net ~stats
              ~rng:(Rng.split root_rng) ~workload ~hooks:(P.hub_hooks cfg) ()
          in
          Network.set_handler net (n + h) (fun ~src ~bytes:_ msg ->
              Hub.on_network_message hub ~src msg);
          hub)
    in
    (* Lane telemetry: armed only when a metrics registry was installed
       before the cluster was built, so unobserved runs schedule nothing. *)
    (if Poe_obs.Metrics.enabled () then begin
       let resources =
         [| Server.Io; Server.Batcher; Server.Worker; Server.Execute |]
       in
       let prev = Array.make_matrix n (Array.length resources) 0.0 in
       let interval = 0.05 in
       let rec sample () =
         Array.iteri
           (fun id replica ->
             let srv = Ctx.server (P.ctx replica) in
             Array.iteri
               (fun ri r ->
                 let busy = Server.busy_seconds srv r in
                 let utilization, queue_depth = lane_histograms r in
                 (* Busy-seconds accrued per simulated second, summed over
                    the resource's lanes (so > 1.0 means more than one lane
                    was kept busy). *)
                 Poe_obs.Metrics.hobs utilization
                   ((busy -. prev.(id).(ri)) /. interval);
                 prev.(id).(ri) <- busy;
                 Poe_obs.Metrics.hobs queue_depth (Server.backlog srv r))
               resources)
           replicas;
         Engine.schedule engine ~delay:interval sample
       in
       Engine.schedule engine ~delay:interval sample
     end);
    Engine.schedule engine ~delay:0.0 (fun () ->
        Array.iter P.start_replica replicas;
        if params.autostart_clients then Array.iter Hub.start hubs);
    { params; engine; net; stats; replicas; hubs }

  let run ?until t =
    let until =
      Option.value until ~default:(t.params.warmup +. t.params.measure)
    in
    (* The host-time region and the simulated-time span cover the same
       event loop: one shows up in [poe_sim profile], the other as a
       top-level "run" span in an exported trace. *)
    Poe_prof.Prof.with_region "run" @@ fun () ->
    Poe_obs.Trace.with_span
      ~ts:(fun () -> Engine.now t.engine)
      ~node:0 ~cat:"sim" "run"
      (fun () -> Engine.run ~until t.engine)

  let crash_replica t id ~at =
    let ctx = P.ctx t.replicas.(id) in
    Engine.schedule t.engine
      ~delay:(at -. Engine.now t.engine)
      (fun () -> Ctx.kill ctx)

  let set_behavior t id b = Ctx.set_behavior (P.ctx t.replicas.(id)) b

  let throughput t = Stats.throughput t.stats
  let avg_latency t = Stats.avg_latency t.stats

  let replica_ctx t id = P.ctx t.replicas.(id)

  let replica_ctxs t = Array.map P.ctx t.replicas

  (* Fail-pause / resume at the network layer (Jepsen's SIGSTOP nemesis):
     the paused node sends nothing and receives nothing, but keeps its
     state and timers, so a later [resume_replica] reconnects it and the
     recovery machinery (checkpoint votes, state transfer) pulls it level.
     Contrast with {!crash_replica}, which is a permanent fail-stop. *)
  let pause_replica t id = Network.crash t.net id

  let resume_replica t id = Network.recover t.net id

  let is_paused t id = Network.is_crashed t.net id

  let every t ~interval f =
    if interval <= 0.0 then invalid_arg "Cluster.every";
    let rec tick () =
      f ();
      Engine.schedule t.engine ~delay:interval tick
    in
    Engine.schedule t.engine ~delay:interval tick

  (* One heartbeat-shaped probe over the whole deployment. Everything
     read here is simulated state, so the sample (and hence the JSONL
     stream built from it) is deterministic per seed. *)
  let live_sample ?(deltas = []) ~seq t =
    let replicas =
      Array.to_list
        (Array.mapi
           (fun id r ->
             let ctx = P.ctx r in
             {
               Poe_live.Heartbeat.r_id = id;
               r_view = P.current_view r;
               r_exec = Ctx.executed_count ctx;
               r_commit = Ctx.stable_seqno ctx;
               r_alive = Ctx.alive ctx && not (Network.is_crashed t.net id);
             })
           t.replicas)
    in
    let now = Engine.now t.engine in
    let inflight, completed, oldest =
      Array.fold_left
        (fun (i, c, o) hub ->
          ( i + Hub.outstanding hub,
            c + Hub.completed hub,
            Float.max o (Hub.oldest_outstanding_age hub ~now) ))
        (0, 0, 0.0) t.hubs
    in
    {
      Poe_live.Heartbeat.hb_seq = seq;
      hb_ts = now;
      hb_replicas = replicas;
      hb_queue = Engine.pending_events t.engine;
      hb_inflight = inflight;
      hb_completed = completed;
      hb_oldest_age = oldest;
      hb_deltas = deltas;
    }

  (* Cluster-wide work counter for the stall watchdog: grows whenever any
     replica executes a batch or any client request completes. *)
  let progress_counter t =
    Array.fold_left
      (fun acc r -> acc + Ctx.executed_count (P.ctx r))
      (Array.fold_left (fun acc hub -> acc + Hub.completed hub) 0 t.hubs)
      t.replicas

  (* The deltas read this domain's own counter cells: another pool job's
     flush into the global accumulator must not leak into this stream. *)
  let attach_heartbeat ?on_sample t hb =
    let prev = ref (Poe_prof.Prof.domain_counters ()) in
    every t ~interval:(Poe_live.Heartbeat.interval hb) (fun () ->
        let newer = Poe_prof.Prof.domain_counters () in
        let deltas = Poe_prof.Prof.sum_deltas ~older:!prev ~newer in
        prev := newer;
        let sample =
          live_sample ~deltas ~seq:(Poe_live.Heartbeat.count hb) t
        in
        Poe_live.Heartbeat.record hb sample;
        match on_sample with Some f -> f sample | None -> ())

  (* A terse per-replica dump for flight-recorder bundles. *)
  let state_summary t =
    let buf = Buffer.create 256 in
    Array.iteri
      (fun id r ->
        let ctx = P.ctx r in
        Printf.bprintf buf
          "replica %d: view=%d exec=%d stable=%d alive=%b paused=%b\n" id
          (P.current_view r) (Ctx.executed_count ctx) (Ctx.stable_seqno ctx)
          (Ctx.alive ctx) (Network.is_crashed t.net id))
      t.replicas;
    Array.iteri
      (fun h hub ->
        Printf.bprintf buf "hub %d: outstanding=%d completed=%d\n" h
          (Hub.outstanding hub) (Hub.completed hub))
      t.hubs;
    Buffer.contents buf

  (* Live honest logs must carry the same digest wherever two of them hold
     a seqno: every entry of a log must match each later log's first entry
     for that seqno. Walking the logs from last to first, [first] maps a
     seqno to the first digest a later log recorded (every later log
     agreeing with it, or the walk would have stopped), tagged with the
     log that recorded it, so a log never checks against its own first
     entry. Linear in the total log length. *)
  let committed_prefix_agrees t =
    let first = Hashtbl.create 4096 in
    let agrees log_ix ctx =
      let exception Disagree in
      match
        Ctx.iter_executed ctx (fun s d ->
            match Hashtbl.find_opt first s with
            | Some (d', owner) ->
                if not (owner = log_ix || String.equal d d') then
                  raise Disagree
            | None -> Hashtbl.add first s (d, log_ix))
      with
      | () -> true
      | exception Disagree -> false
    in
    let rec walk i =
      i < 0
      ||
      let ctx = P.ctx t.replicas.(i) in
      ((not (Ctx.alive ctx && Ctx.behavior ctx = Ctx.Honest)) || agrees i ctx)
      && walk (i - 1)
    in
    walk (Array.length t.replicas - 1)
end
