module R = Poe_runtime
module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Latency = Poe_simnet.Latency
module Config = R.Config
module Cost = R.Cost
module Stats = R.Stats

type protocol = Poe | Pbft | Zyzzyva | Sbft | Hotstuff

let all_protocols = [ Poe; Pbft; Zyzzyva; Sbft; Hotstuff ]

let protocol_name = function
  | Poe -> "poe"
  | Pbft -> "pbft"
  | Zyzzyva -> "zyzzyva"
  | Sbft -> "sbft"
  | Hotstuff -> "hotstuff"

let protocol_module : protocol -> (module R.Protocol_intf.S) = function
  | Poe -> (module Poe_core.Poe_protocol)
  | Pbft -> (module Poe_pbft.Pbft_protocol)
  | Zyzzyva -> (module Poe_zyzzyva.Zyzzyva_protocol)
  | Sbft -> (module Poe_sbft.Sbft_protocol)
  | Hotstuff -> (module Poe_hotstuff.Hotstuff_protocol)

(* Signature-scheme choice per protocol (paper §II, I3 and §IV-A): PoE uses
   MACs up to 16 replicas and threshold signatures beyond; PBFT and Zyzzyva
   use MACs throughout; SBFT and HotStuff are built on threshold
   signatures. *)
let scheme_for protocol n =
  match protocol with
  | Poe -> if n <= 16 then Config.Auth_mac else Config.Auth_threshold
  | Pbft | Zyzzyva -> Config.Auth_mac
  | Sbft | Hotstuff -> Config.Auth_threshold

type point = {
  protocol : string;
  x : float;
  throughput : float;
  latency : float;
  decisions : float;
  messages_per_decision : float;
  bytes_per_decision : float;
}

type series = {
  figure : string;
  title : string;
  x_label : string;
  points : point list;
}

(* ------------------------------------------------------------------ *)
(* Generic runner                                                      *)

type run_spec = {
  config : Config.t;
  warmup : float;
  measure : float;
  crash : int option;       (* replica to fail-stop at t=0.05 *)
  crash_at : float;
  latency_model : Latency.t;
  cost : Cost.t;
  bandwidth : float option;
}

let default_spec config ~scale =
  {
    config;
    warmup = 0.6;
    measure = 2.0 *. scale;
    crash = None;
    crash_at = 0.05;
    latency_model = Latency.Lognormalish { base = 0.0003; jitter = 0.00015 };
    cost = Cost.default;
    bandwidth = Some 1.25e9;
  }

let run_spec (module P : R.Protocol_intf.S) spec =
  Poe_prof.Prof.with_region
    (Printf.sprintf "point:%s n=%d b=%d" P.name spec.config.Config.n
       spec.config.Config.batch_size)
  @@ fun () ->
  let module C = Cluster.Make (P) in
  let params =
    {
      Cluster.config = spec.config;
      cost = spec.cost;
      latency = spec.latency_model;
      bandwidth = spec.bandwidth;
      loss = 0.0;
      warmup = spec.warmup;
      measure = spec.measure;
      autostart_clients = true;
    }
  in
  let c = C.build params in
  (match spec.crash with
  | Some id -> C.crash_replica c id ~at:spec.crash_at
  | None -> ());
  (* Snapshot network counters at the start of the measurement window so
     per-decision traffic excludes warmup. *)
  let msgs0 = ref 0 and bytes0 = ref 0 in
  Engine.schedule c.C.engine ~delay:spec.warmup (fun () ->
      msgs0 := Network.sent_messages c.C.net;
      bytes0 := Network.sent_bytes c.C.net);
  C.run c;
  let decisions = Stats.consensus_throughput c.C.stats *. spec.measure in
  let per_decision v = if decisions > 0.0 then v /. decisions else 0.0 in
  {
    protocol = P.name;
    x = 0.0;
    throughput = Stats.throughput c.C.stats;
    latency = Stats.avg_latency c.C.stats;
    decisions = Stats.consensus_throughput c.C.stats;
    messages_per_decision =
      per_decision (float_of_int (Network.sent_messages c.C.net - !msgs0));
    bytes_per_decision =
      per_decision (float_of_int (Network.sent_bytes c.C.net - !bytes0));
  }

let run protocol spec =
  let (module P) = protocol_module protocol in
  run_spec (module P) spec

(* ------------------------------------------------------------------ *)
(* Parallel fan-out                                                    *)

module Pool = Poe_parallel.Pool
module Prof = Poe_prof.Prof

(* Worker domains flush their profiling counters and regions into the
   global accumulator after every job, so totals read from the
   submitting domain cover the whole fan-out (and survive the pool's
   shutdown). Sums and maxes commute, so totals are independent of
   worker scheduling — byte-identical across job counts. *)
let () = Pool.set_job_epilogue Prof.flush_domain

(* Every experiment point is an independent simulation: it builds its own
   engine (seeded from its config), network and RNG streams, and the
   observability globals are domain-local — so points can run on a domain
   pool. Results are reassembled in submission order, which makes the
   series (and everything serialized from it) byte-identical for any job
   count; [jobs = 1] is literally [List.map] in the calling domain. *)
let pmap ~jobs f xs = Pool.map_list ~jobs f xs

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

module Trace = Poe_obs.Trace
module Metrics = Poe_obs.Metrics

let instrumented ?node_name ?trace ?(metrics = false) ?(profile = false)
    ?on_trace ?on_profile f =
  (* Fail before the (possibly long) run if the trace path is unwritable. *)
  (match trace with
  | Some (_, path) -> (
      match Poe_obs.Json.write_file path "" with
      | Ok () -> ()
      | Error msg -> failwith ("cannot write trace file: " ^ msg))
  | None -> ());
  (* [on_trace] consumers (run analysis, forensic reports) need a sink
     even when no trace file was requested. *)
  let tracer =
    if trace <> None || on_trace <> None then Some (Trace.create ()) else None
  in
  (match tracer with Some tr -> Trace.set tr | None -> ());
  let registry = if metrics then Some (Metrics.create ()) else None in
  (match registry with Some r -> Metrics.set_current r | None -> ());
  if profile then begin
    Prof.reset ();
    Prof.enable_regions ()
  end;
  let counters0 = Prof.counters () in
  let cleanup () =
    Trace.clear ();
    Metrics.clear_current ();
    if profile then Prof.disable_regions ()
  in
  match f () with
  | v ->
      cleanup ();
      (match (tracer, trace) with
      | Some tr, Some (format, path) ->
          Trace.write_file ?node_name tr ~format ~path;
          Format.printf "trace: %d events (%d dropped) -> %s (%s)@."
            (List.length (Trace.events tr))
            (Trace.dropped tr) path
            (Trace.format_name format)
      | _ -> ());
      (match (tracer, on_trace) with
      | Some tr, Some g -> g tr
      | _ -> ());
      (match registry with
      | Some r ->
          Format.printf "counters:@.";
          Array.iter
            (fun (name, v) -> Format.printf "  %-40s %12d@." name v)
            (Prof.delta ~older:counters0 ~newer:(Prof.counters ()));
          Format.printf "%a" Metrics.pp_summary r
      | None -> ());
      if profile then begin
        (* Capture before rendering so the renderer's own allocations
           never leak into the profile. *)
        let snap = Prof.snapshot () in
        print_string (Prof.render_table snap);
        match on_profile with Some g -> g snap | None -> ()
      end;
      v
  | exception e ->
      cleanup ();
      raise e

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let print_series fmt s =
  Format.fprintf fmt "== %s: %s ==@." s.figure s.title;
  Format.fprintf fmt "%-10s %10s %12s %10s %12s %10s %12s@." "protocol"
    s.x_label "txn/s" "lat(s)" "decisions/s" "msgs/dec" "bytes/dec";
  List.iter
    (fun p ->
      Format.fprintf fmt "%-10s %10.4g %12.0f %10.4f %12.1f %10.1f %12.0f@."
        p.protocol p.x p.throughput p.latency p.decisions
        p.messages_per_decision p.bytes_per_decision)
    s.points;
  Format.fprintf fmt "@."

let series_json s =
  let module Json = Poe_obs.Json in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"figure\":%s,\"title\":%s,\"x_label\":%s,\"points\":["
    (Json.quote s.figure) (Json.quote s.title) (Json.quote s.x_label);
  Json.add_sep buf
    (fun p ->
      Printf.bprintf buf
        "{\"protocol\":%s,\"x\":%.6f,\"throughput\":%.6f,\"latency\":%.6f,\
         \"decisions\":%.6f,\"messages_per_decision\":%.6f,\
         \"bytes_per_decision\":%.6f}"
        (Json.quote p.protocol) p.x p.throughput p.latency p.decisions
        p.messages_per_decision p.bytes_per_decision)
    s.points;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Fig. 1: message census                                              *)

let fig1_message_census ?(scale = 1.0) ?(jobs = 1) () =
  let n = 16 in
  let points =
    pmap ~jobs
      (fun protocol ->
        let config =
          Config.make ~n
            ~replica_scheme:(scheme_for protocol n)
            ~clients_per_hub:1000 ()
        in
        let spec = default_spec config ~scale in
        { (run protocol spec) with x = float_of_int n })
      all_protocols
  in
  {
    figure = "fig1";
    title = "measured messages per consensus decision (n=16, good primary)";
    x_label = "n";
    points;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 7: upper bound                                                 *)

let fig7_upper_bound ?(scale = 1.0) ?(jobs = 1) () =
  let mk (execute, x) =
    let r =
      Upper_bound.run ~measure:(2.0 *. scale) ~execute ()
    in
    {
      protocol = (if execute then "exec" else "no-exec");
      x;
      throughput = r.Upper_bound.throughput;
      latency = r.Upper_bound.latency;
      decisions = 0.0;
      messages_per_decision = 0.0;
      bytes_per_decision = 0.0;
    }
  in
  {
    figure = "fig7";
    title = "upper bound: primary only replies to clients (no consensus)";
    x_label = "exec?";
    points = pmap ~jobs mk [ (false, 0.0); (true, 1.0) ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 8: signature schemes                                           *)

let fig8_signatures ?(scale = 1.0) ?(jobs = 1) () =
  let n = 16 in
  let mk (label, x, replica_scheme, client_scheme) =
    let config =
      Config.make ~n ~replica_scheme ~client_scheme ~clients_per_hub:2500 ()
    in
    let spec = default_spec config ~scale in
    { (run Pbft spec) with protocol = label; x }
  in
  {
    figure = "fig8";
    title = "PBFT under three signature schemes (n=16)";
    x_label = "scheme";
    points =
      pmap ~jobs mk
        [
          ("none", 0.0, Config.Auth_none, Config.Auth_none);
          ("ed", 1.0, Config.Auth_digital, Config.Auth_digital);
          ("cmac", 2.0, Config.Auth_mac, Config.Auth_digital);
        ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 9(a-h): scalability                                            *)

type fig9_variant = Standard_failure | Standard_nofail | Zero_failure | Zero_nofail

let variant_name = function
  | Standard_failure -> "standard payload, single backup failure"
  | Standard_nofail -> "standard payload, no failures"
  | Zero_failure -> "zero payload, single backup failure"
  | Zero_nofail -> "zero payload, no failures"

let fig9_scalability ?(scale = 1.0) ?(clients_per_hub = 4000)
    ?(ns = [ 4; 16; 32; 64; 91 ]) ?(jobs = 1) variant =
  let payload, crash =
    match variant with
    | Standard_failure -> (Config.Standard, true)
    | Standard_nofail -> (Config.Standard, false)
    | Zero_failure -> (Config.Zero, true)
    | Zero_nofail -> (Config.Zero, false)
  in
  let grid =
    List.concat_map (fun p -> List.map (fun n -> (p, n)) ns) all_protocols
  in
  let points =
    pmap ~jobs
      (fun (protocol, n) ->
        let config =
          Config.make ~n ~payload
            ~replica_scheme:(scheme_for protocol n)
            ~clients_per_hub ~request_timeout:0.5 ()
        in
        let spec =
          {
            (default_spec config ~scale) with
            crash = (if crash then Some (n - 1) else None);
          }
        in
        { (run protocol spec) with x = float_of_int n })
      grid
  in
  {
    figure =
      (match variant with
      | Standard_failure -> "fig9ab"
      | Standard_nofail -> "fig9cd"
      | Zero_failure -> "fig9ef"
      | Zero_nofail -> "fig9gh");
    title = "scalability: " ^ variant_name variant;
    x_label = "n";
    points;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 9(i,j): batching under failure                                 *)

let fig9_batching ?(scale = 1.0) ?(clients_per_hub = 4000)
    ?(batch_sizes = [ 10; 50; 100; 200; 400 ]) ?(jobs = 1) () =
  let n = 32 in
  let grid =
    List.concat_map (fun p -> List.map (fun b -> (p, b)) batch_sizes)
      all_protocols
  in
  let points =
    pmap ~jobs
      (fun (protocol, batch_size) ->
        let config =
          Config.make ~n ~batch_size
            ~replica_scheme:(scheme_for protocol n)
            ~clients_per_hub ~request_timeout:0.5 ()
        in
        let spec = { (default_spec config ~scale) with crash = Some (n - 1) } in
        { (run protocol spec) with x = float_of_int batch_size })
      grid
  in
  {
    figure = "fig9ij";
    title = "batching under a single backup failure (n=32)";
    x_label = "batch";
    points;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 9(k,l): out-of-ordering disabled                               *)

let fig9_no_ooo ?(scale = 1.0) ?(ns = [ 4; 16; 32; 64; 91 ]) ?(jobs = 1) () =
  let grid =
    List.concat_map (fun p -> List.map (fun n -> (p, n)) ns) all_protocols
  in
  let points =
    pmap ~jobs
      (fun (protocol, n) ->
        let config =
          Config.make ~n ~out_of_order:false ~batch_size:1
            ~replica_scheme:(scheme_for protocol n)
            ~n_hubs:16 ~clients_per_hub:4 ~batch_delay:0.0005 ()
        in
        let spec = default_spec config ~scale in
        { (run protocol spec) with x = float_of_int n })
      grid
  in
  {
    figure = "fig9kl";
    title =
      "out-of-order processing disabled (sequential consensus, closed loop)";
    x_label = "n";
    points;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 10: view change timeline                                       *)

(* The paper gives clients 3 s timeouts — an order of magnitude above the
   saturated latency — so a healthy primary is never suspected spuriously.
   Scaled down, the same separation must hold: timeouts well above the
   steady-state latency of the chosen client population. *)
let fig10_view_change ?(scale = 1.0) ?(clients_per_hub = 500) ?(jobs = 1) () =
  let n = 32 in
  let total = 5.0 *. scale in
  let crash_at = 2.0 *. scale in
  let timeline protocol =
    let (module P : R.Protocol_intf.S) = protocol_module protocol in
    let module C = Cluster.Make (P) in
    let config =
      Config.make ~n
        ~replica_scheme:(scheme_for protocol n)
        ~clients_per_hub ~request_timeout:0.8 ~view_timeout:0.4 ()
    in
    let params =
      {
        (Cluster.default_params ~config) with
        warmup = 0.5;
        measure = total -. 0.5;
      }
    in
    let c = C.build params in
    C.crash_replica c 0 ~at:crash_at;
    C.run c ~until:total;
    ( protocol_name protocol,
      Stats.bucket_series c.C.stats ~bucket:(0.25 *. scale) ~upto:total )
  in
  pmap ~jobs timeline [ Poe; Pbft ]

(* ------------------------------------------------------------------ *)
(* Fig. 11: pure message-delay simulation                              *)

(* The paper's own validation methodology (§IV-I): 500 consensus decisions,
   all computation free, arrivals delayed by a fixed message delay. In the
   sequential plots one decision fully completes — every replica has
   executed it — before the next is injected; the out-of-order plot
   preloads the primary with all 500 requests under a window of 250. *)
let fig11_simulation ?(out_of_order = false) ?(ns = [ 4; 16; 128 ])
    ?(delays_ms = [ 10.; 20.; 40. ]) ?(jobs = 1) () =
  let decisions_target = 500 in
  let protocols = [ Poe; Pbft; Hotstuff ] in
  let run_one protocol n delay_ms =
    let (module P : R.Protocol_intf.S) = protocol_module protocol in
    let module C = Cluster.Make (P) in
    let config =
      (* The paper simulates the three-phase (TS) variant of PoE. *)
      Config.make ~n ~batch_size:1 ~out_of_order
        ~window:(if out_of_order then 250 else 1)
        ~replica_scheme:Config.Auth_threshold ~n_hubs:1 ~clients_per_hub:1
        ~request_timeout:1e6 ~view_timeout:1e6 ~batch_delay:0.0
        ~checkpoint_period:max_int ()
    in
    let params =
      {
        Cluster.config;
        cost = Cost.zero;
        latency = Latency.Constant (delay_ms /. 1000.);
        bandwidth = None;
        loss = 0.0;
        warmup = 0.0;
        measure = 1e6;
        autostart_clients = false;
      }
    in
    let c = C.build params in
    let executed_count id = R.Replica_ctx.executed_count (C.replica_ctx c id) in
    let all_executed k =
      let ok = ref true in
      for id = 0 to n - 1 do
        if executed_count id < k then ok := false
      done;
      !ok
    in
    let inject k =
      let req =
        {
          R.Message.hub = 0;
          client = 0;
          rid = k;
          op = None;
          submitted = Engine.now c.C.engine;
        }
      in
      let deliver id = P.on_message c.C.replicas.(id) ~src:n (R.Message.Client_request req) in
      match protocol with
      | Hotstuff ->
          (* Rotating leader: clients broadcast. *)
          for id = 0 to n - 1 do
            deliver id
          done
      | Poe | Pbft | Zyzzyva | Sbft -> deliver 0
    in
    let cap = 3600.0 in
    let run_until_all k =
      while (not (all_executed k)) && Engine.now c.C.engine < cap
            && Engine.pending_events c.C.engine > 0 do
        ignore (Engine.step c.C.engine)
      done
    in
    (* Let the start events (timers etc.) fire first. *)
    C.run c ~until:0.0;
    (if out_of_order || protocol = Hotstuff then begin
       (* HotStuff's decisions are chain rounds: its sequentiality is
          intrinsic (one QC per round), so the barrier is the chain
          itself. *)
       for k = 0 to decisions_target - 1 do
         inject k
       done;
       run_until_all decisions_target
     end
     else
       for k = 1 to decisions_target do
         inject (k - 1);
         run_until_all k
       done);
    let elapsed = Engine.now c.C.engine in
    let made = executed_count 0 in
    {
      protocol = P.name;
      x = delay_ms;
      throughput = 0.0;
      latency = float_of_int n;
      decisions = (if elapsed > 0.0 then float_of_int made /. elapsed else 0.0);
      messages_per_decision =
        (if made > 0 then
           float_of_int (Network.sent_messages c.C.net) /. float_of_int made
         else 0.0);
      bytes_per_decision = 0.0;
    }
  in
  let grid =
    List.concat_map
      (fun protocol ->
        List.concat_map (fun n -> List.map (fun d -> (protocol, n, d)) delays_ms) ns)
      protocols
  in
  let points = pmap ~jobs (fun (p, n, d) -> run_one p n d) grid in
  {
    figure = (if out_of_order then "fig11-ooo" else "fig11");
    title =
      (if out_of_order then
         "simulated decisions/s with out-of-order window 250 (latency col = n)"
       else "simulated decisions/s, sequential (latency col = n)");
    x_label = "delay ms";
    points;
  }
