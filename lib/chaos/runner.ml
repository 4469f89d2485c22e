module R = Poe_runtime
module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Gilbert = Poe_simnet.Gilbert
module Rng = Poe_simnet.Rng
module Config = R.Config
module Ctx = R.Replica_ctx
module Hub = R.Hub_core
module Cluster = Poe_harness.Cluster
module Trace = Poe_obs.Trace
module Heartbeat = Poe_live.Heartbeat
module Watchdog = Poe_live.Watchdog
module Flight = Poe_live.Flight

module Make (P : R.Protocol_intf.S) = struct
  module C = Cluster.Make (P)

  type attribution = {
    a_diff : Poe_diff.Trace_diff.outcome;
        (* first divergence between the faulty run and a fault-free
           re-run of the same seed (chaos marker events excluded) *)
    a_faults : Poe_analysis.Forensics.fault list;
        (* schedule actions that had fired by the divergence point *)
    a_clean_verdict : string;
        (* verdict of the fault-free re-run — "clean" confirms the
           schedule caused the violation; anything else means the bug
           reproduces without faults *)
  }

  type outcome = {
    schedule : Schedule.t;
    violation : Auditor.violation option;
    forensics : Poe_analysis.Forensics.t option;
        (* violation explained from the trace; present only when a sink
           was installed for the run *)
    attribution : attribution option;
        (* fault-attribution diff; present only on violation with a
           sink installed (the clean baseline needs the trace) *)
    stall : Poe_live.Watchdog.stall option;
        (* commit progress stopped with requests outstanding (or the
           step budget ran out); latched by the watchdog, never set
           when a violation fired first *)
    heartbeats : string;
        (* the run's heartbeat JSONL, "" when no heartbeat was armed *)
    flight : string option;
        (* directory a flight-recorder bundle was written to *)
    completed : int;
    samples : int;
    final_time : float;
  }

  (* The verdict lattice: Violation (safety broken) dominates Stall
     (liveness lost), which dominates Clean. Exit codes are part of the
     CLI contract: 0 clean / 1 violation / 3 stall (2 is cmdliner's
     usage-error code). *)
  let verdict o =
    if o.violation <> None then "violation"
    else if o.stall <> None then "stall"
    else "clean"

  let exit_code o =
    if o.violation <> None then 1 else if o.stall <> None then 3 else 0

  (* Speculative protocols execute before agreement settles, so mid-run
     divergence (e.g. under an equivocating primary) is legal until the
     view change rolls the losing branch back — the auditor must restrict
     cross-replica comparison to certified prefixes for them. *)
  let speculative =
    String.equal P.name "poe" || String.equal P.name "zyzzyva"

  let default_params ~seed ~n =
    let config =
      Config.make ~n ~batch_size:5 ~materialize:true ~n_hubs:2
        ~clients_per_hub:4 ~request_timeout:0.4 ~view_timeout:0.2
        ~checkpoint_period:8 ~seed ()
    in
    { (Cluster.default_params ~config) with warmup = 0.2; measure = 3.0 }

  (* [args] is a thunk so that with tracing disabled no argument list is
     ever allocated (and no byzantine behavior is ever formatted) — the
     guard contract from trace.mli. *)
  let tr ~engine ~node name args =
    if Trace.enabled () then
      Trace.instant ~ts:(Engine.now engine) ~node ~cat:"chaos" ~args:(args ())
        name

  let no_args () = []

  let behavior_of_byz = function
    | Schedule.Equivocate -> Ctx.Equivocate
    | Schedule.Keep_in_dark victims -> Ctx.Keep_in_dark victims
    | Schedule.Silent -> Ctx.Silent

  (* Arm one schedule entry. [disconnected] tracks which replicas the
     schedule currently cuts off (paused or partitioned) so the auditor
     can exclude them from cross-replica checks; a replica can be cut off
     for two reasons at once, hence the reference counts. *)
  let arm_entry c (disconnected : (int, int) Hashtbl.t) { Schedule.at; action }
      =
    let engine = c.C.engine in
    let net = c.C.net in
    let n = (c.C.params.Cluster.config : Config.t).Config.n in
    let cut id =
      Hashtbl.replace disconnected id
        (1 + Option.value ~default:0 (Hashtbl.find_opt disconnected id))
    in
    let uncut id =
      match Hashtbl.find_opt disconnected id with
      | Some k when k > 1 -> Hashtbl.replace disconnected id (k - 1)
      | Some _ -> Hashtbl.remove disconnected id
      | None -> ()
    in
    let fire () =
      match action with
      | Schedule.Crash r ->
          tr ~engine ~node:r "chaos_crash" no_args;
          cut r;
          C.pause_replica c r
      | Schedule.Recover r ->
          tr ~engine ~node:r "chaos_recover" no_args;
          uncut r;
          C.resume_replica c r
      | Schedule.Block_link { src; dst } ->
          tr ~engine ~node:src "chaos_block_link" (fun () ->
              [ ("dst", Trace.I dst) ]);
          Network.block_link net ~src ~dst
      | Schedule.Unblock_link { src; dst } ->
          tr ~engine ~node:src "chaos_unblock_link" (fun () ->
              [ ("dst", Trace.I dst) ]);
          Network.unblock_link net ~src ~dst
      | Schedule.Partition group ->
          tr ~engine ~node:(List.hd group) "chaos_partition" (fun () ->
              [ ("size", Trace.I (List.length group)) ]);
          let total = Network.n_nodes net in
          List.iter
            (fun a ->
              cut a;
              for b = 0 to total - 1 do
                if not (List.mem b group) then begin
                  Network.block_link net ~src:a ~dst:b;
                  Network.block_link net ~src:b ~dst:a
                end
              done)
            group
      | Schedule.Heal ->
          tr ~engine ~node:0 "chaos_heal" no_args;
          (* Partition membership was the only reason these replicas were
             marked cut off; pauses have their own Recover entries. *)
          for r = 0 to n - 1 do
            if not (C.is_paused c r) then Hashtbl.remove disconnected r
          done;
          Network.heal_partitions net
      | Schedule.Loss_burst { loss_bad; mean_good; mean_bad; until; seed } ->
          tr ~engine ~node:0 "chaos_loss_burst" (fun () ->
              [ ("loss_bad", Trace.F loss_bad); ("until", Trace.F until) ]);
          let base = Network.loss net in
          let channel =
            Gilbert.create ~loss_good:base ~loss_bad ~mean_good ~mean_bad ()
          in
          let rng = Rng.create seed in
          let rec step () =
            let now = Engine.now engine in
            if now >= until then begin
              tr ~engine ~node:0 "chaos_loss_burst_end" no_args;
              Network.set_loss net base
            end
            else begin
              Network.set_loss net (Gilbert.loss channel);
              let dwell = Gilbert.dwell channel rng in
              Engine.schedule engine
                ~delay:(Float.min dwell (until -. now))
                (fun () ->
                  Gilbert.flip channel;
                  step ())
            end
          in
          step ()
      | Schedule.Latency_surge { factor; until } ->
          tr ~engine ~node:0 "chaos_latency_surge" (fun () ->
              [ ("factor", Trace.F factor); ("until", Trace.F until) ]);
          let base = Network.latency_factor net in
          Network.set_latency_factor net (base *. factor);
          Engine.schedule engine
            ~delay:(until -. Engine.now engine)
            (fun () ->
              tr ~engine ~node:0 "chaos_latency_surge_end" no_args;
              Network.set_latency_factor net base)
      | Schedule.Set_byzantine { replica; byz } ->
          tr ~engine ~node:replica "chaos_set_byzantine" (fun () ->
              [
                ( "behavior",
                  Trace.S (Format.asprintf "%a" Schedule.pp_action action) );
              ]);
          C.set_behavior c replica (behavior_of_byz byz)
      | Schedule.Restore_honest r ->
          tr ~engine ~node:r "chaos_restore_honest" no_args;
          C.set_behavior c r Ctx.Honest
    in
    Engine.schedule engine ~delay:(at -. Engine.now engine) fire

  let rec run_gen ~attribute ?(sample_interval = 0.05) ?(horizon = 2.0)
      ?(drain = 1.2) ?stall_window ?heartbeat_interval ?on_heartbeat
      ?flight_dir ?step_budget ~params ~schedule () =
    (match Schedule.validate ~n:params.Cluster.config.Config.n schedule with
    | Ok () -> ()
    | Error e -> invalid_arg ("Runner.run: bad schedule: " ^ e));
    let c = C.build params in
    Engine.set_step_budget c.C.engine step_budget;
    (* Chaos rounds share one trace ring: remember where this round's
       events start so forensics analyzes only this round. *)
    let trace_mark =
      match Trace.sink () with
      | Some sink -> Some (sink, Trace.emitted sink)
      | None -> None
    in
    let disconnected = Hashtbl.create 8 in
    let auditor =
      Auditor.create ~ctxs:(C.replica_ctxs c) ~speculative
        ~paused:(fun id -> Hashtbl.mem disconnected id)
        ()
    in
    (* The watchdog always exists; without a [stall_window] its window is
       infinite, so only an exhausted step budget can ever latch it. *)
    let dog =
      Watchdog.create ~window:(Option.value stall_window ~default:infinity)
    in
    let hb =
      match (heartbeat_interval, flight_dir, on_heartbeat) with
      | None, None, None -> None
      | _ ->
          let hb =
            Heartbeat.create
              ~interval:(Option.value heartbeat_interval ~default:0.1)
              ()
          in
          C.attach_heartbeat ?on_sample:on_heartbeat c hb;
          Some hb
    in
    List.iter (arm_entry c disconnected) schedule;
    let total = horizon +. drain in
    let outstanding () =
      Array.fold_left (fun acc h -> acc + Hub.outstanding h) 0 c.C.hubs
    in
    (* Advance in slices, auditing and feeding the watchdog after each, so
       a violation or stall stops the run within one sample interval of
       the moment it became visible. *)
    let rec loop () =
      let now = Engine.now c.C.engine in
      if now < total && Auditor.violation auditor = None
         && not (Watchdog.stalled dog)
      then begin
        C.run c ~until:(Float.min total (now +. sample_interval));
        let now = Engine.now c.C.engine in
        Auditor.sample auditor ~now;
        if Engine.budget_exhausted c.C.engine then
          Watchdog.force dog ~now ~outstanding:(outstanding ())
            ~reason:"step-budget"
        else
          Watchdog.observe dog ~now ~progress:(C.progress_counter c)
            ~outstanding:(outstanding ());
        loop ()
      end
    in
    loop ();
    (* The strict final audit assumes a quiesced cluster; a stalled run
       never quiesced, so auditing it would report artifacts of the
       stall, not real safety violations. *)
    if Auditor.violation auditor = None && not (Watchdog.stalled dog) then
      Auditor.final_check auditor ~now:(Engine.now c.C.engine);
    let violation = Auditor.violation auditor in
    let stall = if violation = None then Watchdog.stall dog else None in
    let forensics =
      match (violation, trace_mark) with
      | Some v, Some (sink, mark) ->
          Some
            (Poe_analysis.Forensics.explain
               ~events:(Trace.events_from sink mark)
               ~invariant:v.Auditor.invariant ~detail:v.Auditor.detail
               ~at:v.Auditor.at
               ~replica:(Option.value v.Auditor.replica ~default:(-1))
               ~seqnos:v.Auditor.seqnos ())
      | _ -> None
    in
    (* Fault attribution: re-run the same parameters (same seed, fresh
       cluster) with the fault schedule stripped, and localize the first
       divergence between the faulty and clean histories. Chaos marker
       instants exist only on the faulty side by construction, so they
       are excluded before diffing. The re-run uses its own trace sink
       and never recurses ([attribute:false]). *)
    let attribution =
      match (violation, trace_mark) with
      | Some v, Some (sink, mark) when attribute && schedule <> [] ->
          let non_chaos =
            List.filter (fun e -> not (String.equal e.Trace.cat "chaos"))
          in
          let faulty_events = non_chaos (Trace.events_from sink mark) in
          let saved = Trace.sink () in
          let fresh = Trace.create () in
          Trace.set fresh;
          (* The faulty run stopped at the violation; the baseline only
             needs the clean history up to that same simulated instant —
             running it longer would just wrap its ring and make the
             prefix incomparable. *)
          let t_end = Engine.now c.C.engine in
          let clean =
            Fun.protect
              ~finally:(fun () ->
                match saved with
                | Some t -> Trace.set t
                | None -> Trace.clear ())
              (fun () ->
                run_gen ~attribute:false ~sample_interval ~horizon:t_end
                  ~drain:0.0 ?step_budget ~params ~schedule:[] ())
          in
          let clean_events = non_chaos (Trace.events fresh) in
          let a_diff =
            Poe_diff.Trace_diff.diff_events ~a:faulty_events ~b:clean_events ()
          in
          let cutoff =
            match a_diff with
            | Poe_diff.Trace_diff.Diverged d -> d.Poe_diff.Trace_diff.d_ts
            | _ -> v.Auditor.at
          in
          let a_faults =
            match forensics with
            | Some f ->
                List.filter
                  (fun ft -> ft.Poe_analysis.Forensics.f_at <= cutoff)
                  f.Poe_analysis.Forensics.faults
            | None -> []
          in
          Some { a_diff; a_faults; a_clean_verdict = verdict clean }
      | _ -> None
    in
    let flight =
      match flight_dir with
      | Some dir when violation <> None || stall <> None ->
          let reason =
            match (violation, stall) with
            | Some v, _ -> "violation:" ^ v.Auditor.invariant
            | None, Some s -> "stall:" ^ s.Poe_live.Watchdog.s_reason
            | None, None -> assert false
          in
          let events =
            match trace_mark with
            | Some (sink, mark) -> Trace.events_from sink mark
            | None -> []
          in
          let heartbeats =
            match hb with Some hb -> Heartbeat.tail_jsonl hb | None -> ""
          in
          let meta =
            [
              ("protocol", P.name);
              ("seed", string_of_int params.Cluster.config.Config.seed);
            ]
          in
          ignore
            (Flight.dump ~dir ~reason ~at:(Engine.now c.C.engine) ~meta
               ~events ~heartbeats ~state:(C.state_summary c) ());
          Some dir
      | _ -> None
    in
    {
      schedule;
      violation;
      forensics;
      attribution;
      stall;
      heartbeats =
        (match hb with Some hb -> Heartbeat.to_jsonl hb | None -> "");
      flight;
      completed = Array.fold_left (fun acc h -> acc + Hub.completed h) 0 c.C.hubs;
      samples = Auditor.samples auditor;
      final_time = Engine.now c.C.engine;
    }

  let run ?sample_interval ?horizon ?drain ?stall_window ?heartbeat_interval
      ?on_heartbeat ?flight_dir ?step_budget ~params ~schedule () =
    run_gen ~attribute:true ?sample_interval ?horizon ?drain ?stall_window
      ?heartbeat_interval ?on_heartbeat ?flight_dir ?step_budget ~params
      ~schedule ()

  let run_seed ?profile ?(n = 4) ?horizon ?drain ?stall_window
      ?heartbeat_interval ?on_heartbeat ?flight_dir ?step_budget
      ?(extra = []) ~seed () =
    let params = default_params ~seed ~n in
    let horizon_v = Option.value horizon ~default:2.0 in
    (* Faults forced via [extra] reserve their replica's budget slot for
       the whole rest of the run (extras carry no cure entries), so the
       generator never piles a second concurrent fault on top. *)
    let reserved =
      List.filter_map
        (fun e ->
          match e.Schedule.action with
          | Schedule.Crash r | Schedule.Set_byzantine { replica = r; _ } ->
              Some (r, e.Schedule.at, infinity)
          | _ -> None)
        extra
    in
    let generated =
      Generator.generate ?profile ~reserved ~seed ~n
        ~byzantine:(Generator.byzantine_ok ~protocol:P.name)
        ~horizon:horizon_v ()
    in
    (* Extra entries (e.g. --silence-primary) merge into the generated
       schedule by time; the stable sort keeps generated-before-extra
       order at equal timestamps, so runs stay reproducible. *)
    let schedule =
      List.stable_sort
        (fun a b -> Float.compare a.Schedule.at b.Schedule.at)
        (generated @ extra)
    in
    run ~horizon:horizon_v ?drain ?stall_window ?heartbeat_interval
      ?on_heartbeat ?flight_dir ?step_budget ~params ~schedule ()

  (* Parallel sweep. Each seed is an independent job: it builds its own
     cluster, auditor and disconnected-set, and installs its own
     domain-local trace sink (saving and restoring whatever sink the
     executing domain had) so forensics on a violation read only that
     job's events. Results come back in seed order, so the sweep's
     verdicts are identical for any job count. *)
  let run_sweep ?profile ?(n = 4) ?horizon ?drain ?stall_window
      ?heartbeat_interval ?flight_dir ?step_budget ?(extra = []) ?(jobs = 1)
      ~seeds () =
    let one seed =
      let saved = Trace.sink () in
      let restore () =
        match saved with Some tr -> Trace.set tr | None -> Trace.clear ()
      in
      Trace.set (Trace.create ());
      (* One bundle subdirectory per seed so sweep failures never
         clobber each other. *)
      let flight_dir =
        Option.map
          (fun dir -> Filename.concat dir (Printf.sprintf "seed-%d" seed))
          flight_dir
      in
      Fun.protect ~finally:restore (fun () ->
          ( seed,
            run_seed ?profile ~n ?horizon ?drain ?stall_window
              ?heartbeat_interval ?flight_dir ?step_budget ~extra ~seed () ))
    in
    Poe_parallel.Pool.map_list ~jobs one seeds

  (* Greedy schedule minimization. Entries after the violation never ran,
     so they are dropped without an oracle call; then single entries are
     removed left-to-right, restarting after every success, as long as a
     fresh run of the reduced schedule (same cluster parameters, fresh
     engine) still produces a violation. *)
  let minimize ?(max_runs = 64) ?horizon ?drain ?stall_window ?step_budget
      ?check ~params ~schedule ~violation_at () =
    let check =
      (* Default oracle preserves the original behavior (any safety
         violation); stall minimization passes [fun o -> o.stall <> None]
         together with the stall_window/step_budget that detected it. *)
      Option.value check ~default:(fun o -> o.violation <> None)
    in
    let runs = ref 0 in
    let fails sched =
      if !runs >= max_runs then false
      else begin
        incr runs;
        (* The shrinker's oracle only asks "does it still fail?" — no
           attribution re-runs, or every probe would cost double. *)
        check
          (run_gen ~attribute:false ?horizon ?drain ?stall_window ?step_budget
             ~params ~schedule:sched ())
      end
    in
    let current =
      ref (List.filter (fun e -> e.Schedule.at <= violation_at) schedule)
    in
    let progress = ref true in
    while !progress && !runs < max_runs do
      progress := false;
      let i = ref 0 in
      while !i < List.length !current && !runs < max_runs do
        let cand = List.filteri (fun j _ -> j <> !i) !current in
        if fails cand then begin
          current := cand;
          progress := true
        end
        else incr i
      done
    done;
    (!current, !runs)
end
