(* The benchmark's workloads and one measured simulation of each, driven
   only through the harness's public entry points. Why each workload was
   chosen is recorded in README.md next to this file. *)

module R = Poe_runtime
module Config = R.Config
module Ctx = R.Replica_ctx
module Server = R.Server
module Stats = R.Stats
module Hub = R.Hub_core
module Cluster = Poe_harness.Cluster
module Network = Poe_simnet.Network
module Prof = Poe_prof.Prof

type protocol = Poe | Pbft

type t = {
  name : string;
  protocol : protocol;
  config : seed:int -> Config.t;
      (** closed loop: every logical client keeps one request outstanding;
          16 client machines and [Cluster.default_params]'s network *)
  warmup : float;
  measure : float;  (** simulated seconds *)
  crash : (int * float) option;
      (** fail-stop replica and simulated time; a scaled-down horizon may
          end before it *)
}

let all =
  [
    {
      name = "poe-n16";
      protocol = Poe;
      config =
        (fun ~seed ->
          Config.make ~n:16 ~replica_scheme:Config.Auth_mac
            ~payload:Config.Standard ~clients_per_hub:1000 ~seed ());
      warmup = 0.5;
      measure = 1.0;
      crash = None;
    };
    {
      name = "pbft-n32-zero";
      protocol = Pbft;
      config =
        (fun ~seed ->
          Config.make ~n:32 ~replica_scheme:Config.Auth_mac
            ~payload:Config.Zero ~clients_per_hub:250 ~seed ());
      warmup = 0.3;
      measure = 0.4;
      crash = None;
    };
    {
      name = "poe-n4-160k";
      protocol = Poe;
      config =
        (fun ~seed ->
          Config.make ~n:4 ~replica_scheme:Config.Auth_mac
            ~payload:Config.Standard ~clients_per_hub:10_000
            ~request_timeout:3.0 ~seed ());
      warmup = 1.0;
      measure = 4.0;
      crash = None;
    };
    (* The measure window opens after the view change, whose length varies
       from seed to seed (1.4-2.3 s over seeds 1-10); the outage itself is
       the per-layer [sim_outage_s]. The long service after it keeps that
       variation a small share of the work simulated. *)
    {
      name = "poe-n4-failover";
      protocol = Poe;
      config =
        (fun ~seed ->
          Config.make ~n:4 ~replica_scheme:Config.Auth_threshold
            ~materialize:true ~batch_size:10 ~clients_per_hub:200
            ~request_timeout:1.0 ~view_timeout:0.5 ~seed ());
      warmup = 4.5;
      measure = 1.5;
      crash = Some (0, 0.5);
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let protocol_module = function
  | Poe -> (module Poe_core.Poe_protocol : R.Protocol_intf.S)
  | Pbft -> (module Poe_pbft.Pbft_protocol : R.Protocol_intf.S)

(* Everything one simulation yields. Counters are [Prof] deltas over
   warmup + measure; [Max] counters read since the reset before setup. *)
type sample = {
  run_s : float;  (** host seconds of warmup + measure *)
  alloc_bytes : float;
  minor_gcs : int;
  major_gcs : int;
  promoted_bytes : float;
  counters : (string * int) array;
  tput : float;
  lat : float;
  outage : float;
  decisions : float;  (** consensus decisions in the measure window *)
  window_msgs : int;
  window_bytes : int;
  worker_util : float;
  io_util : float;
  execute_util : float;
  attempted : int;  (** requests clients submitted *)
  replies : int;
  failed : int;  (** outstanding requests on hubs that starved *)
  failures : string list;  (** correctness checks that did not hold *)
}

let lookup counters name =
  match Array.find_opt (fun (n, _) -> String.equal n name) counters with
  | Some (_, v) -> v
  | None -> invalid_arg ("no Prof counter " ^ name)

let counter s name = lookup s.counters name

let params w ~seed ~scale =
  let config = w.config ~seed in
  {
    (Cluster.default_params ~config) with
    warmup = w.warmup *. scale;
    measure = w.measure *. scale;
  }

(* Mean host seconds per build of the workload's cluster, over [builds]
   builds back to back, each dropped at once. One build takes a few
   milliseconds, and a major GC slice lands in some builds and not in
   others; the mean over several carries its share of that work. *)
let setup_time w ~seed ~scale ~builds =
  let (module P) = protocol_module w.protocol in
  let module C = Cluster.Make (P) in
  let params = params w ~seed ~scale in
  let t0 = Report.now_ns () in
  for _ = 1 to builds do
    ignore (Sys.opaque_identity (C.build params))
  done;
  Report.seconds_between t0 (Report.now_ns ()) /. float_of_int builds

(* Completions per 100 ms slot [[k/10, (k+1)/10)], the resolution [Stats]
   keeps. [Stats.bucket_series] at that width rounds some bucket edges
   onto the neighbouring slot, so each slot is read as the difference of
   two cumulative counts, each one bucket from time 0 to the middle of a
   slot. *)
let slots stats ~horizon =
  let cumulative k =
    if k < 0 then 0
    else
      let upto = (float_of_int k +. 0.5) /. 10.0 in
      match Stats.bucket_series stats ~bucket:upto ~upto with
      | [ (_, rate) ] -> Float.to_int (Float.round (rate *. upto))
      | _ -> invalid_arg "Workload.slots"
  in
  Array.init
    (int_of_float (Float.ceil ((horizon *. 10.0) -. 1e-6)))
    (fun k -> cumulative k - cumulative (k - 1))

(* Longest run of slots without a completion from [from] on: the time
   without service. *)
let longest_gap slots ~from =
  let best = ref 0 and run = ref 0 in
  Array.iteri
    (fun k n ->
      if float_of_int k /. 10.0 +. 1e-9 >= from then begin
        run := if n = 0 then !run + 1 else 0;
        best := max !best !run
      end)
    slots;
  float_of_int !best /. 10.0

(* The invariant of [Cluster.committed_prefix_agrees] -- live honest
   replicas executed the same batch wherever two of them executed a seqno
   -- in time linear in the logs. That function compares every pair of
   logs entry by entry, which takes longer than the failover simulation. *)
let prefixes_agree ctxs =
  let digests = Hashtbl.create 4096 in
  Array.for_all
    (fun ctx ->
      (not (Ctx.alive ctx && Ctx.behavior ctx = Ctx.Honest))
      || List.for_all
           (fun (seqno, digest) ->
             match Hashtbl.find_opt digests seqno with
             | Some d -> String.equal d digest
             | None ->
                 Hashtbl.add digests seqno digest;
                 true)
           (Ctx.executed_digests ctx))
    ctxs

let simulate w ~seed ~scale =
  let (module P) = protocol_module w.protocol in
  let module C = Cluster.Make (P) in
  let params = params w ~seed ~scale in
  let warmup = params.Cluster.warmup and measure = params.Cluster.measure in
  let horizon = warmup +. measure in
  Prof.reset ();
  let c = Report.span "setup" (fun () -> C.build params) in
  Option.iter (fun (id, at) -> C.crash_replica c id ~at) w.crash;
  (* [Gc.allocated_bytes] lags behind the minor heap until a minor
     collection; emptying it at both ends makes the count exact, whatever
     ran in the process before. *)
  Gc.minor ();
  let c0 = Prof.counters () in
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Report.now_ns () in
  Report.span "warmup" (fun () -> C.run c ~until:warmup);
  let t1 = Report.now_ns () in
  let msgs0 = Network.sent_messages c.C.net
  and bytes0 = Network.sent_bytes c.C.net in
  let t2 = Report.now_ns () in
  Report.span "measure" (fun () -> C.run c ~until:horizon);
  let t3 = Report.now_ns () in
  Gc.minor ();
  let a1 = Gc.allocated_bytes () in
  let g1 = Gc.quick_stat () in
  let c1 = Prof.counters () in
  let counters =
    Array.mapi
      (fun i (name, v1) ->
        match snd Prof.counter_defs.(i) with
        | Prof.Sum -> (name, v1 - snd c0.(i))
        | Prof.Max -> (name, v1))
      c1
  in
  let busiest res =
    Array.fold_left
      (fun acc ctx -> Float.max acc (Server.busy_seconds (Ctx.server ctx) res))
      0.0 (C.replica_ctxs c)
    /. horizon
  in
  let stats = c.C.stats in
  let slots = slots stats ~horizon in
  let outage =
    match w.crash with None -> 0.0 | Some (_, at) -> longest_gap slots ~from:at
  in
  let attempted = lookup counters "hub.requests_submitted"
  and replies = lookup counters "hub.replies_completed" in
  let outstanding = Array.fold_left (fun acc h -> acc + Hub.outstanding h) 0 c.C.hubs in
  (* A client still waiting after half the (unscaled) horizon was starved;
     every request still outstanding on its hub counts as failed. *)
  let failed =
    Array.fold_left
      (fun acc h ->
        if Hub.oldest_outstanding_age h ~now:horizon > (w.warmup +. w.measure) /. 2.0 then
          acc + Hub.outstanding h
        else acc)
      0 c.C.hubs
  in
  let failures =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (prefixes_agree (C.replica_ctxs c), "committed prefixes disagree");
        ( Array.for_all (fun ctx -> Ctx.duplicate_executions ctx = 0) (C.replica_ctxs c),
          "a request executed twice" );
        (attempted = replies + outstanding, "requests lost between submit and reply");
        (Stats.throughput stats > 0.0, "no reply in the measure window");
        (slots.(Array.length slots - 1) > 0, "no reply in the last 100 ms before the horizon");
        (failed = 0, "a client waited longer than half the horizon");
      ]
  in
  {
    run_s = Report.seconds_between t0 t1 +. Report.seconds_between t2 t3;
    alloc_bytes = a1 -. a0;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_bytes =
      (g1.Gc.promoted_words -. g0.Gc.promoted_words) *. float_of_int (Sys.word_size / 8);
    counters;
    tput = Stats.throughput stats;
    lat = Stats.avg_latency stats;
    outage;
    decisions = Stats.consensus_throughput stats *. measure;
    window_msgs = Network.sent_messages c.C.net - msgs0;
    window_bytes = Network.sent_bytes c.C.net - bytes0;
    worker_util = busiest Server.Worker;
    io_util = busiest Server.Io;
    execute_util = busiest Server.Execute;
    attempted;
    replies;
    failed;
    failures;
  }
