(* Command-line driver for the PoE reproduction.

   poe-sim run --protocol poe --replicas 32 --crash-backup ...
       simulate one deployment and report throughput/latency
   poe-sim chaos --protocol pbft --seed 7 --rounds 50 --minimize
       seeded fault-schedule fuzzing with the mid-run safety auditor
   poe-sim analyze trace.jsonl
       reconstruct slot lifecycles and the per-phase latency breakdown
       from an exported trace
   poe-sim experiment fig9ab ...
       regenerate one of the paper's figures
   poe-sim profile --protocol poe --seed 1
       profile the simulator itself on a canned mini-run: hot-path
       counter budgets, per-region wall-clock/allocation, folded stacks
   poe-sim list
       show the experiment catalogue. *)

module R = Poe_runtime
module E = Poe_harness.Experiments
module Cluster = Poe_harness.Cluster
module Config = R.Config
module An = Poe_analysis
module Json = Poe_obs.Json
open Cmdliner

(* An unwritable output path ends the run through the top-level
   [Failure] handler, like every other I/O error. *)
let save path contents =
  match Json.write_file path contents with Ok () -> () | Error e -> failwith e

let protocol_conv =
  let parse s =
    match
      List.find_opt (fun p -> E.protocol_name p = String.lowercase_ascii s)
        E.all_protocols
    with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown protocol %S (try %s)" s
               (String.concat ", " (List.map E.protocol_name E.all_protocols))))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (E.protocol_name p))

let protocol =
  Arg.(
    value
    & opt protocol_conv E.Poe
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:"Protocol: poe, pbft, zyzzyva, sbft or hotstuff.")

let replicas =
  Arg.(
    value & opt int 16
    & info [ "n"; "replicas" ] ~docv:"N" ~doc:"Number of replicas (>= 4).")

let batch_size =
  Arg.(
    value & opt int 100
    & info [ "b"; "batch-size" ] ~docv:"B" ~doc:"Requests per batch.")

let clients =
  Arg.(
    value & opt int 64_000
    & info [ "clients" ] ~docv:"C"
        ~doc:"Logical clients, spread over 16 client machines.")

let zero_payload =
  Arg.(
    value & flag
    & info [ "zero-payload" ] ~doc:"Run the zero-payload configuration.")

let crash_backup =
  Arg.(
    value & flag
    & info [ "crash-backup" ] ~doc:"Fail-stop one backup replica at t=0.05s.")

let crash_primary_at =
  Arg.(
    value & opt (some float) None
    & info [ "crash-primary-at" ] ~docv:"T"
        ~doc:"Fail-stop the initial primary at simulated time T.")

let no_ooo =
  Arg.(
    value & flag
    & info [ "no-out-of-order" ]
        ~doc:"Disable out-of-order processing (sequential window).")

let duration =
  Arg.(
    value & opt float 2.0
    & info [ "duration" ] ~docv:"SECONDS"
        ~doc:"Simulated measurement window (after 0.6s warmup).")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let scale =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"S" ~doc:"Scale experiment durations by S.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a structured event trace of the run to $(docv).")

let trace_format =
  Arg.(
    value
    & opt
        (enum
           [
             ("jsonl", Poe_obs.Trace.Jsonl); ("chrome", Poe_obs.Trace.Chrome);
           ])
        Poe_obs.Trace.Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace file format: $(b,jsonl) (one event per line) or $(b,chrome) \
           (Chrome trace_event JSON, loadable in Perfetto / chrome://tracing).")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect counters, latency histograms and lane-utilization samples \
           during the run and print a summary afterwards.")

let report_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write an analysis report of the run to $(docv): the per-phase \
           latency breakdown for $(b,run), the forensic violation \
           report(s) for $(b,chaos). Implies in-memory tracing even \
           without $(b,--trace).")

let obs_args trace_file trace_format =
  Option.map (fun path -> (trace_format, path)) trace_file

module Prof = Poe_prof.Prof

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile the simulator itself during the run: hot-path counter \
           totals and per-request budgets, plus wall-clock/allocation \
           attribution per region, printed as a top-N table afterwards.")

let profile_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"PREFIX"
        ~doc:
          "Write the profile to files as well: $(docv).json (machine \
           readable, host-time fields tagged unstable), $(docv).folded \
           (folded stacks for flamegraph.pl / speedscope) and \
           $(docv).budgets (deterministic per-request counter budgets). \
           Implies $(b,--profile).")

let write_profile_files prefix snap =
  save (prefix ^ ".json") (Prof.render_json snap);
  save (prefix ^ ".folded") (Prof.render_folded snap);
  save (prefix ^ ".budgets") (Prof.render_budgets snap);
  Format.printf "profile -> %s.json, %s.folded, %s.budgets@." prefix prefix
    prefix

(* A strictly positive int, rejected at parse time with a proper usage
   error rather than an uncaught exception mid-run. *)
let pos_int : int Arg.conv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | _ -> Error (`Msg "must be a positive integer")
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "j"; "jobs" ] ~docv:"J"
        ~doc:
          "Worker domains for independent simulation jobs (sweeps, \
           experiment grid points). Default: the POE_JOBS environment \
           variable, else min 4 (cores - 1). $(docv) = 1 runs everything \
           sequentially in this domain; results are identical for any \
           value.")

let resolve_jobs = function
  | Some j -> j
  | None -> Poe_parallel.Pool.default_jobs ()

(* Observed runs must stay sequential: trace/metrics/profile sinks are
   domain-local, so parallel grid points would record into worker-domain
   state that is never exported. Whenever that actually downgrades a
   requested (or POE_JOBS/core-count defaulted) parallelism, say so —
   a silent downgrade looks like a performance bug. *)
let force_sequential ~cmd ~why jobs =
  let requested = resolve_jobs jobs in
  if requested > 1 then
    Format.eprintf "poe_sim %s: %s forces jobs=1 (%s requested %d)@." cmd why
      (if jobs = None then "POE_JOBS/default" else "--jobs")
      requested;
  1

let protocol_module p : (module R.Protocol_intf.S) =
  match p with
  | E.Poe -> (module Poe_core.Poe_protocol)
  | E.Pbft -> (module Poe_pbft.Pbft_protocol)
  | E.Zyzzyva -> (module Poe_zyzzyva.Zyzzyva_protocol)
  | E.Sbft -> (module Poe_sbft.Sbft_protocol)
  | E.Hotstuff -> (module Poe_hotstuff.Hotstuff_protocol)

(* The authenticator scheme each protocol uses in the paper's evaluation. *)
let auth_scheme protocol n =
  match protocol with
  | E.Poe -> if n <= 16 then Config.Auth_mac else Config.Auth_threshold
  | E.Pbft | E.Zyzzyva -> Config.Auth_mac
  | E.Sbft | E.Hotstuff -> Config.Auth_threshold

let run_cmd =
  let run protocol n batch_size clients zero crash_backup crash_primary_at
      no_ooo duration seed trace_file trace_format metrics report profile
      profile_out =
    let (module P : R.Protocol_intf.S) = protocol_module protocol in
    let profile = profile || profile_out <> None in
    let scheme = auth_scheme protocol n in
    let config =
      Config.make ~n ~batch_size
        ~payload:(if zero then Config.Zero else Config.Standard)
        ~replica_scheme:scheme ~out_of_order:(not no_ooo)
        ~clients_per_hub:(max 1 (clients / 16))
        ~request_timeout:0.5 ~seed ()
    in
    let module C = Cluster.Make (P) in
    let params =
      { (Cluster.default_params ~config) with warmup = 0.6; measure = duration }
    in
    let on_trace =
      Option.map
        (fun path tr ->
          let life = An.Slot_life.reconstruct (Poe_obs.Trace.events tr) in
          let breakdowns = An.Attribution.of_result life in
          save path (An.Report.breakdowns_to_string breakdowns);
          Format.printf "analysis report -> %s@." path)
        report
    in
    let c =
      E.instrumented
        ~node_name:(fun id ->
          if id < n then Printf.sprintf "replica %d" id
          else Printf.sprintf "hub %d" (id - n))
        ?trace:(obs_args trace_file trace_format)
        ~metrics ~profile
        ?on_profile:(Option.map write_profile_files profile_out)
        ?on_trace
        (fun () ->
          let c = C.build params in
          if crash_backup then C.crash_replica c (n - 1) ~at:0.05;
          (match crash_primary_at with
          | Some t -> C.crash_replica c 0 ~at:t
          | None -> ());
          C.run c;
          c)
    in
    Format.printf
      "protocol=%s n=%d batch=%d payload=%s clients=%d%s@\n\
       throughput   %10.0f txn/s@\n\
       avg latency  %10.4f s@\n\
       decisions    %10.1f /s@\n\
       messages     %10d total@\n\
       safety       %s@."
      P.name n batch_size
      (if zero then "zero" else "standard")
      (Config.total_clients config)
      (if crash_backup then " (one backup crashed)" else "")
      (C.throughput c) (C.avg_latency c)
      (R.Stats.consensus_throughput c.C.stats)
      (Poe_simnet.Network.sent_messages c.C.net)
      (if C.committed_prefix_agrees c then "prefix agreement holds"
       else "VIOLATED")
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one deployment of a protocol.")
    Term.(
      const run $ protocol $ replicas $ batch_size $ clients $ zero_payload
      $ crash_backup $ crash_primary_at $ no_ooo $ duration $ seed $ trace_file
      $ trace_format $ metrics_flag $ report_file $ profile_flag $ profile_out)

(* ------------------------------------------------------------------ *)
(* poe_sim chaos                                                       *)

let chaos_rounds =
  Arg.(
    value & opt int 20
    & info [ "rounds" ] ~docv:"R"
        ~doc:"Chaos rounds to run; round i uses a seed derived from --seed.")

let chaos_n =
  Arg.(
    value & opt int 4
    & info [ "chaos-replicas" ] ~docv:"N"
        ~doc:"Replicas in each chaos cluster (default 4).")

let minimize_flag =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:
          "On a violation, greedily shrink the failing schedule to a \
           minimal reproducer before reporting it.")

let sweep_arg =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "sweep" ] ~docv:"S"
        ~doc:
          "Run $(docv) seeded chaos schedules (seeds derived from --seed \
           exactly like --rounds) fanned out over --jobs worker domains, \
           with violations reported per seed. Verdicts are byte-identical \
           to --jobs 1. Overrides --rounds; --trace is not available in \
           this mode (each job traces into its own domain-local ring).")

(* Live-observability flags (shared by chaos and, partly, experiment). *)

let heartbeat_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "heartbeat" ] ~docv:"FILE"
        ~doc:
          "Write the deterministic heartbeat JSONL stream(s) to $(docv): \
           one line per --heartbeat-interval of simulated time with \
           per-replica commit/exec watermarks, view, queue depth, \
           in-flight requests and counter deltas. Byte-identical for a \
           fixed seed across --jobs values once the unstable-tagged \
           wall-clock field is stripped.")

let heartbeat_interval_arg =
  Arg.(
    value & opt float 0.1
    & info [ "heartbeat-interval" ] ~docv:"T"
        ~doc:
          "Simulated seconds between heartbeat samples (default 0.1). \
           Only meaningful with $(b,--heartbeat) or $(b,--watch).")

let watch_flag =
  Arg.(
    value & flag
    & info [ "watch" ]
        ~doc:
          "Render live run status to stderr: a one-line in-place view per \
           heartbeat for sequential runs, per-grid-point progress and ETA \
           for parallel sweeps. Purely cosmetic (stderr only) — artifact \
           streams are unaffected.")

let flight_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "On a stall or safety violation, dump a flight-recorder bundle \
           under $(docv)/seed-<seed>/: manifest.json, trace.jsonl (last \
           events; consumable by $(b,poe_sim analyze)), heartbeats.jsonl, \
           profile.json and state.txt.")

let stall_window_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "stall-window" ] ~docv:"T"
        ~doc:
          "Arm the stall watchdog: if cluster-wide commit progress stops \
           for $(docv) simulated seconds while client requests are \
           outstanding, the run stops with verdict $(b,stall) (exit 3).")

let step_budget_arg =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "step-budget" ] ~docv:"N"
        ~doc:
          "Hard bound on engine events processed per run; exhaustion is \
           reported as a stall (reason step-budget). A host-liveness \
           guard for runs that would otherwise grind.")

let silence_primary_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "silence-primary" ] ~docv:"T"
        ~doc:
          "Inject an extra schedule entry making replica 0 (the initial \
           primary) byzantine-silent at simulated time $(docv) — the \
           canonical primary-failover exercise: every protocol must \
           detect the silence, change view and resume commits inside \
           the stall window. The silenced replica pre-consumes the \
           generated schedule's fault budget.")

let silence_extra = function
  | None -> []
  | Some t ->
      [
        {
          Poe_chaos.Schedule.at = t;
          action =
            Poe_chaos.Schedule.Set_byzantine
              { replica = 0; byz = Poe_chaos.Schedule.Silent };
        };
      ]

let chaos_exits =
  Cmd.Exit.info 0 ~doc:"every round clean: no safety violation, no stall."
  :: Cmd.Exit.info 1 ~doc:"at least one safety violation (dominates stall)."
  :: Cmd.Exit.info 3
       ~doc:
         "no safety violation, but at least one round stalled (watchdog \
          window elapsed without commit progress, or step budget \
          exhausted)."
  :: Cmd.Exit.defaults

let chaos_cmd =
  let run protocol seed rounds sweep jobs n minimize trace_file trace_format
      metrics report profile profile_out heartbeat heartbeat_interval watch
      flight_dir stall_window step_budget silence_primary =
    let (module P : R.Protocol_intf.S) = protocol_module protocol in
    let profile = profile || profile_out <> None in
    let module Ch = Poe_chaos.Runner.Make (P) in
    (* Heartbeats are armed whenever anything consumes them. *)
    let heartbeat_interval_opt =
      if heartbeat <> None || watch || flight_dir <> None then
        Some heartbeat_interval
      else None
    in
    let extra = silence_extra silence_primary in
    let hb_log = Buffer.create 1024 in
    let write_heartbeats () =
      match heartbeat with
      | Some path ->
          save path (Buffer.contents hb_log);
          Format.printf "heartbeats -> %s@." path
      | None -> ()
    in
    (* run_seed's defaults: 2.0 s fault horizon + 1.2 s drain. *)
    let total_sim = 3.2 in
    (* Shared per-outcome reporting: schedule, verdict, forensics, and an
       optional minimization pass (always sequential, after the fact).
       Stall minimization reuses the greedy shrinker with a stall oracle
       and the same watchdog settings that caught the original. *)
    let report_outcome ~label ~round_seed ~forensic_log ~violations ~stalls
        ~minimize (outcome : Ch.outcome) =
      Format.printf "%s seed %d schedule:@.%a" label round_seed
        Poe_chaos.Schedule.pp outcome.Ch.schedule;
      Buffer.add_string hb_log outcome.Ch.heartbeats;
      (match outcome.Ch.flight with
      | Some dir -> Format.printf "flight bundle -> %s@." dir
      | None -> ());
      (match (outcome.Ch.violation, outcome.Ch.stall) with
      | None, None ->
          Format.printf "%s seed %d: ok (%d requests, %d samples, t=%.2fs)@."
            label round_seed outcome.Ch.completed outcome.Ch.samples
            outcome.Ch.final_time
      | None, Some s ->
          incr stalls;
          Format.printf
            "%s seed %d: STALL (%s) at t=%.2fs: no commit progress since \
             t=%.2fs, %d request(s) outstanding@."
            label round_seed s.Poe_live.Watchdog.s_reason
            s.Poe_live.Watchdog.s_at s.Poe_live.Watchdog.s_since
            s.Poe_live.Watchdog.s_outstanding;
          if minimize then begin
            let params = Ch.default_params ~seed:round_seed ~n in
            let minimal, oracle_runs =
              Ch.minimize ?stall_window ?step_budget
                ~check:(fun o -> o.Ch.stall <> None)
                ~params ~schedule:outcome.Ch.schedule
                ~violation_at:s.Poe_live.Watchdog.s_at ()
            in
            Format.printf
              "minimal stall reproducer (%d action(s), %d oracle runs):@.%a"
              (List.length minimal) oracle_runs Poe_chaos.Schedule.pp minimal
          end
      | Some v, _ ->
          incr violations;
          Format.printf "%s seed %d: VIOLATION %a@." label round_seed
            Poe_chaos.Auditor.pp_violation v;
          (match outcome.Ch.forensics with
          | Some f ->
              let text = An.Report.forensics_to_string f in
              Buffer.add_string forensic_log
                (Printf.sprintf "%s seed %d\n%s\n" label round_seed text);
              print_string text
          | None -> ());
          (match outcome.Ch.attribution with
          | Some a ->
              Format.printf "fault attribution (clean same-seed re-run: %s):@."
                a.Ch.a_clean_verdict;
              print_string
                (Poe_diff.Trace_diff.render ~label_a:"faulty" ~label_b:"clean"
                   a.Ch.a_diff);
              (match a.Ch.a_faults with
              | [] ->
                  Format.printf
                    "no schedule action had fired by the divergence point@."
              | faults ->
                  Format.printf "intersecting fault action(s):@.";
                  List.iter
                    (fun (ft : An.Forensics.fault) ->
                      Format.printf "  t=%.3fs node %d %s@." ft.An.Forensics.f_at
                        ft.An.Forensics.f_node ft.An.Forensics.f_action)
                    faults)
          | None -> ());
          if minimize then begin
            let params = Ch.default_params ~seed:round_seed ~n in
            let minimal, oracle_runs =
              Ch.minimize ~params ~schedule:outcome.Ch.schedule
                ~violation_at:v.Poe_chaos.Auditor.at ()
            in
            Format.printf
              "minimal reproducer (%d action(s), %d oracle runs):@.%a"
              (List.length minimal) oracle_runs Poe_chaos.Schedule.pp minimal
          end);
      Format.printf "@."
    in
    let finish ~violations ~stalls =
      write_heartbeats ();
      if violations > 0 then exit 1 else if stalls > 0 then exit 3
    in
    match sweep with
    | Some s ->
        if trace_file <> None then
          Format.eprintf
            "chaos --sweep: note: --trace is ignored; each job traces into \
             its own domain-local ring@.";
        let jobs =
          if profile then force_sequential ~cmd:"chaos" ~why:"--profile" jobs
          else resolve_jobs jobs
        in
        if watch then
          Poe_parallel.Pool.set_job_notifier
            (Some
               (Poe_live.Progress.notifier
                  ~label:(Printf.sprintf "chaos %s sweep" P.name)
                  ()));
        let forensic_log = Buffer.create 1024 in
        let violations, stalls =
          E.instrumented ~profile
            ?on_profile:(Option.map write_profile_files profile_out)
            (fun () ->
              (* Same seed derivation as --rounds, so `--sweep S` covers
                 exactly the seeds `--rounds S` would, and any seed replays
                 alone. *)
              let seeds = List.init s (fun i -> seed + (7919 * i)) in
              let outcomes =
                Ch.run_sweep ~n ~jobs ?stall_window
                  ?heartbeat_interval:heartbeat_interval_opt ?flight_dir
                  ?step_budget ~extra ~seeds ()
              in
              Poe_parallel.Pool.set_job_notifier None;
              let violations = ref 0 and stalls = ref 0 in
              List.iteri
                (fun i (round_seed, outcome) ->
                  report_outcome
                    ~label:(Printf.sprintf "sweep %d" i)
                    ~round_seed ~forensic_log ~violations ~stalls ~minimize
                    outcome)
                outcomes;
              (!violations, !stalls))
        in
        (match report with
        | Some path ->
            let content =
              if Buffer.length forensic_log = 0 then
                "no safety violations: no forensic report\n"
              else Buffer.contents forensic_log
            in
            save path content;
            Format.printf "forensic report -> %s@." path
        | None -> ());
        Format.printf
          "chaos: protocol=%s sweep=%d jobs=%d violations=%d stalls=%d@."
          P.name s jobs violations stalls;
        finish ~violations ~stalls
    | None ->
    (* Forensic reports accumulate here across rounds; --report writes
       them out at the end (and forces a trace sink so the runner can
       produce them even without --trace). *)
    let forensic_log = Buffer.create 1024 in
    let on_trace =
      Option.map
        (fun path (_ : Poe_obs.Trace.t) ->
          let content =
            if Buffer.length forensic_log = 0 then
              "no safety violations: no forensic report\n"
            else Buffer.contents forensic_log
          in
          save path content;
          Format.printf "forensic report -> %s@." path)
        report
    in
    (* A flight bundle's trace.jsonl needs a sink even when no trace file
       or report was requested (sweep jobs install their own). *)
    let on_trace =
      match on_trace with
      | Some _ -> on_trace
      | None ->
          if flight_dir <> None then Some (fun (_ : Poe_obs.Trace.t) -> ())
          else None
    in
    let violations, stalls =
      E.instrumented
        ?trace:(obs_args trace_file trace_format)
        ~metrics ~profile
        ?on_profile:(Option.map write_profile_files profile_out)
        ?on_trace
        (fun () ->
          let violations = ref 0 and stalls = ref 0 in
          for i = 0 to rounds - 1 do
            (* Each round's seed is a fixed function of --seed, so one
               master seed names the whole sweep and any single round can
               be replayed alone. *)
            let round_seed = seed + (7919 * i) in
            let watcher =
              if watch then
                Some
                  (Poe_live.Watch.create
                     ~label:
                       (Printf.sprintf "chaos %s seed %d" P.name round_seed)
                     ())
              else None
            in
            let on_heartbeat =
              Option.map
                (fun w s -> Poe_live.Watch.update ~total:total_sim w s)
                watcher
            in
            let flight_dir =
              Option.map
                (fun dir ->
                  Filename.concat dir (Printf.sprintf "seed-%d" round_seed))
                flight_dir
            in
            let outcome =
              Ch.run_seed ~n ?stall_window
                ?heartbeat_interval:heartbeat_interval_opt ?on_heartbeat
                ?flight_dir ?step_budget ~extra ~seed:round_seed ()
            in
            (match watcher with
            | Some w -> Poe_live.Watch.finish w
            | None -> ());
            report_outcome
              ~label:(Printf.sprintf "round %d" i)
              ~round_seed ~forensic_log ~violations ~stalls ~minimize outcome
          done;
          (!violations, !stalls))
    in
    Format.printf "chaos: protocol=%s rounds=%d violations=%d stalls=%d@."
      P.name rounds violations stalls;
    finish ~violations ~stalls
  in
  Cmd.v
    (Cmd.info "chaos" ~exits:chaos_exits
       ~doc:
         "Run seeded fault schedules (crashes, partitions, bursty loss, \
          latency surges, byzantine flips) against a protocol with a \
          mid-run safety auditor and an optional stall watchdog \
          ($(b,--stall-window)). Exit status encodes the verdict lattice: \
          0 clean, 1 safety violation, 3 stall. With $(b,--trace) or \
          $(b,--report), a violation additionally produces a forensic \
          report: implicated slots, divergence point, fault intersection \
          and the causal timeline across replicas. $(b,--flight-dir) \
          captures a black-box bundle on any non-clean verdict.")
    Term.(
      const run $ protocol $ seed $ chaos_rounds $ sweep_arg $ jobs_arg
      $ chaos_n $ minimize_flag $ trace_file $ trace_format $ metrics_flag
      $ report_file $ profile_flag $ profile_out $ heartbeat_file
      $ heartbeat_interval_arg $ watch_flag $ flight_dir_arg
      $ stall_window_arg $ step_budget_arg $ silence_primary_arg)

(* ------------------------------------------------------------------ *)
(* poe_sim analyze                                                     *)

let analyze_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "JSONL trace exported with $(b,--trace), or a flight-recorder \
             bundle directory (a $(b,seed-<seed>/) directory with a \
             $(b,manifest.json)) — the trace is then resolved from the \
             manifest.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the breakdown as JSON to $(docv).")
  in
  let slot_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "slot" ] ~docv:"SEQNO"
          ~doc:
            "Print the causal critical path that bounded slot $(docv) \
             (use with $(b,--node)).")
  in
  let node_arg =
    Arg.(
      value & opt int 0
      & info [ "node" ] ~docv:"REPLICA"
          ~doc:"Replica whose view of $(b,--slot) to walk (default 0).")
  in
  (* A flight bundle names its members in manifest.json; resolving the
     trace through the manifest (rather than hardcoding trace.jsonl)
     means a bundle without a captured trace fails with "no trace in
     bundle" instead of a confusing file-not-found. *)
  let resolve_bundle path =
    if not (Sys.is_directory path) then Ok path
    else
      let manifest = Filename.concat path "manifest.json" in
      if not (Sys.file_exists manifest) then
        Error
          (Printf.sprintf
             "%s: directory is not a flight bundle (no manifest.json)" path)
      else
        match Result.bind (Json.read_file manifest) Json.parse with
        | Error e -> Error (Printf.sprintf "%s: %s" manifest e)
        | Ok doc -> (
            let files =
              match Json.member "files" doc with
              | Some (Json.Arr fs) -> List.filter_map Json.to_string fs
              | _ -> []
            in
            match List.find_opt (String.equal "trace.jsonl") files with
            | Some f -> Ok (Filename.concat path f)
            | None ->
                Error
                  (Printf.sprintf
                     "%s: bundle manifest lists no trace.jsonl (files: %s)"
                     path (String.concat ", " files)))
  in
  let run trace json slot node =
    match
      Result.bind (resolve_bundle trace) An.Trace_reader.load_file
    with
    | Error msg -> `Error (false, msg)
    | Ok events ->
        let life = An.Slot_life.reconstruct events in
        let breakdowns = An.Attribution.of_result life in
        print_string (An.Report.breakdowns_to_string breakdowns);
        (match json with
        | Some path ->
            save path (An.Report.breakdowns_json breakdowns);
            Format.printf "json breakdown -> %s@." path
        | None -> ());
        (match slot with
        | Some seqno ->
            let graph = An.Causal.build events in
            let path = An.Causal.critical_path graph ~node ~seqno in
            if path = [] then
              Format.printf "no events for slot %d on replica %d@." seqno node
            else print_string (An.Report.path_to_string ~seqno ~node path)
        | None -> ());
        `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Reconstruct slot lifecycles from an exported JSONL trace and \
          print the per-phase latency breakdown (p50/p95/p99 and \
          critical-path share per consensus phase, plus slot and \
          client-e2e latencies). $(b,--slot)/$(b,--node) additionally \
          walk the causal message graph and print the critical path \
          that bounded one slot.")
    Term.(ret (const run $ trace_arg $ json_out $ slot_arg $ node_arg))

let experiments : (string * string * (jobs:int -> float -> unit)) list =
  let fmt = Format.std_formatter in
  [
    ( "fig1",
      "message census per protocol (Fig. 1's table, measured)",
      fun ~jobs scale ->
        E.print_series fmt (E.fig1_message_census ~scale ~jobs ()) );
    ( "fig7",
      "upper bound without consensus (Fig. 7)",
      fun ~jobs scale -> E.print_series fmt (E.fig7_upper_bound ~scale ~jobs ())
    );
    ( "fig8",
      "signature schemes, PBFT n=16 (Fig. 8)",
      fun ~jobs scale -> E.print_series fmt (E.fig8_signatures ~scale ~jobs ())
    );
    ( "fig9ab",
      "scalability, standard payload, single backup failure (Fig. 9a,b)",
      fun ~jobs scale ->
        E.print_series fmt (E.fig9_scalability ~scale ~jobs E.Standard_failure)
    );
    ( "fig9cd",
      "scalability, standard payload, no failures (Fig. 9c,d)",
      fun ~jobs scale ->
        E.print_series fmt (E.fig9_scalability ~scale ~jobs E.Standard_nofail)
    );
    ( "fig9ef",
      "scalability, zero payload, single backup failure (Fig. 9e,f)",
      fun ~jobs scale ->
        E.print_series fmt (E.fig9_scalability ~scale ~jobs E.Zero_failure) );
    ( "fig9gh",
      "scalability, zero payload, no failures (Fig. 9g,h)",
      fun ~jobs scale ->
        E.print_series fmt (E.fig9_scalability ~scale ~jobs E.Zero_nofail) );
    ( "fig9ij",
      "batching under failure, n=32 (Fig. 9i,j)",
      fun ~jobs scale -> E.print_series fmt (E.fig9_batching ~scale ~jobs ()) );
    ( "fig9kl",
      "out-of-order disabled (Fig. 9k,l)",
      fun ~jobs scale -> E.print_series fmt (E.fig9_no_ooo ~scale ~jobs ()) );
    ( "fig10",
      "view-change throughput timeline (Fig. 10)",
      fun ~jobs scale ->
        List.iter
          (fun (name, series) ->
            Format.printf "%s:@." name;
            List.iter
              (fun (t, rate) ->
                Format.printf "  t=%5.2fs  %10.0f txn/s@." t rate)
              series)
          (E.fig10_view_change ~scale ~jobs ()) );
    ( "fig11",
      "pure message-delay simulation (Fig. 11, sequential)",
      fun ~jobs _ -> E.print_series fmt (E.fig11_simulation ~jobs ()) );
    ( "fig11-ooo",
      "message-delay simulation with out-of-order window 250 (Fig. 11)",
      fun ~jobs _ ->
        E.print_series fmt (E.fig11_simulation ~out_of_order:true ~jobs ()) );
  ]

let experiment_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id (see $(b,list)).")
  in
  let run name scale jobs watch trace_file trace_format metrics profile
      profile_out =
    match List.find_opt (fun (id, _, _) -> id = name) experiments with
    | Some (_, _, f) ->
        let profile = profile || profile_out <> None in
        let jobs =
          if trace_file <> None || metrics || profile then
            let why =
              String.concat "/"
                (List.concat
                   [
                     (if trace_file <> None then [ "--trace" ] else []);
                     (if metrics then [ "--metrics" ] else []);
                     (if profile then [ "--profile" ] else []);
                   ])
            in
            force_sequential ~cmd:"experiment" ~why jobs
          else resolve_jobs jobs
        in
        (* Grid-point progress/ETA on stderr; fires on sequential and
           pooled paths alike, so output is the same for any --jobs. *)
        if watch then
          Poe_parallel.Pool.set_job_notifier
            (Some
               (Poe_live.Progress.notifier
                  ~label:(Printf.sprintf "experiment %s" name)
                  ()));
        E.instrumented
          ?trace:(obs_args trace_file trace_format)
          ~metrics ~profile
          ?on_profile:(Option.map write_profile_files profile_out)
          (fun () -> f ~jobs scale);
        if watch then Poe_parallel.Pool.set_job_notifier None;
        `Ok ()
    | None ->
        `Error
          (false, Printf.sprintf "unknown experiment %S; try 'poe_sim list'" name)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one of the paper's figures.")
    Term.(
      ret
        (const run $ name_arg $ scale $ jobs_arg $ watch_flag $ trace_file
       $ trace_format $ metrics_flag $ profile_flag $ profile_out))

(* ------------------------------------------------------------------ *)
(* poe_sim profile                                                     *)

let profile_cmd =
  let prof_replicas =
    Arg.(
      value & opt int 4
      & info [ "n"; "replicas" ] ~docv:"N"
          ~doc:"Replicas in the profiled mini-cluster.")
  in
  let prof_clients =
    Arg.(
      value & opt int 1600
      & info [ "clients" ] ~docv:"C"
          ~doc:"Logical clients, spread over 16 client machines.")
  in
  let prof_duration =
    Arg.(
      value & opt float 0.5
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Simulated measurement window (after 0.2s warmup).")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"K" ~doc:"Regions to show in the table.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"PREFIX"
          ~doc:
            "Output prefix for $(docv).json, $(docv).folded and \
             $(docv).budgets (default profile_<protocol>).")
  in
  let run protocol n batch_size clients duration seed top out =
    let (module P : R.Protocol_intf.S) = protocol_module protocol in
    let config =
      Config.make ~n ~batch_size ~payload:Config.Standard
        ~replica_scheme:(auth_scheme protocol n) ~out_of_order:true
        ~clients_per_hub:(max 1 (clients / 16))
        ~request_timeout:0.5 ~seed ()
    in
    let module C = Cluster.Make (P) in
    let params =
      { (Cluster.default_params ~config) with warmup = 0.2; measure = duration }
    in
    (* Own the profiler lifecycle directly (rather than through
       [E.instrumented]) so --top reaches the table renderer. Capture the
       snapshot before rendering anything: the renderer's allocations must
       not leak into the numbers. *)
    Prof.reset ();
    Prof.enable_regions ();
    let c =
      Fun.protect ~finally:Prof.disable_regions (fun () ->
          let c = C.build params in
          C.run c;
          c)
    in
    let snap = Prof.snapshot () in
    print_string (Prof.render_table ~top snap);
    let prefix =
      Option.value out ~default:(Printf.sprintf "profile_%s" P.name)
    in
    write_profile_files prefix snap;
    Format.printf "profiled run: protocol=%s n=%d %.0f txn/s@." P.name n
      (C.throughput c)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile the simulator itself on a canned mini-run: build and run \
          one small cluster with the region profiler enabled, print the \
          top-N self-time/allocation table and the hot-path counter \
          budgets, and write $(b,PREFIX).json / $(b,PREFIX).folded (for \
          flamegraph.pl or speedscope) / $(b,PREFIX).budgets. Counter and \
          allocation sections are byte-identical across reruns for a fixed \
          seed; wall-clock fields are tagged unstable.")
    Term.(
      const run $ protocol $ prof_replicas $ batch_size $ prof_clients
      $ prof_duration $ seed $ top $ out)

(* ------------------------------------------------------------------ *)
(* poe_sim diff — run-vs-run differential observability                *)

let diff_cmd =
  let diff_exits =
    [
      Cmd.Exit.info 0 ~doc:"the inputs are identical (within tolerance).";
      Cmd.Exit.info 4
        ~doc:
          "the inputs diverged (or a ring-evicted prefix made them \
           incomparable).";
      Cmd.Exit.info 1 ~doc:"error: unreadable or structurally un-diffable \
                            inputs.";
    ]
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the machine-readable report instead of text.")
  in
  let traces_cmd =
    let a_arg =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"A" ~doc:"First JSONL trace.")
    in
    let b_arg =
      Arg.(
        required
        & pos 1 (some file) None
        & info [] ~docv:"B" ~doc:"Second JSONL trace.")
    in
    let window_arg =
      Arg.(
        value & opt int 3
        & info [ "window" ] ~docv:"N"
            ~doc:"Context events shown on each side of the divergence.")
    in
    let run a b window json =
      match Poe_diff.Trace_diff.diff_files ~window a b with
      | Error e ->
          Format.eprintf "poe_sim diff traces: %s@." e;
          exit 1
      | Ok outcome ->
          print_string
            (if json then Poe_diff.Trace_diff.to_json outcome
             else Poe_diff.Trace_diff.render ~label_a:a ~label_b:b outcome);
          exit (Poe_diff.Trace_diff.exit_code outcome)
    in
    Cmd.v
      (Cmd.info "traces" ~exits:diff_exits
         ~doc:
           "Structurally diff two exported JSONL traces: events align in \
            emission order while the slot lifecycle is tracked, so the \
            first divergence is reported in consensus coordinates (event \
            index, node, seqno, phase, field) with a windowed context \
            dump. Ring-evicted prefixes on one side report \
            incomparable-prefix, never a spurious divergence.")
      Term.(const run $ a_arg $ b_arg $ window_arg $ json_flag)
  in
  let metrics_cmd =
    let a_arg =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"A"
            ~doc:
              "First artifact: profile/wallclock JSON, heartbeat JSONL, or \
               a $(b,.budgets) table.")
    in
    let b_arg =
      Arg.(
        required
        & pos 1 (some file) None
        & info [] ~docv:"B" ~doc:"Second artifact (same format as $(b,A)).")
    in
    let tolerance_arg =
      Arg.(
        value
        & opt_all (pair ~sep:'=' string float) []
        & info [ "tolerance" ] ~docv:"FIELD=REL"
            ~doc:
              "Allow field $(b,FIELD) (matched against the final path \
               segment) to differ by the given relative fraction, e.g. \
               $(b,--tolerance wall_s=0.2). Repeatable.")
    in
    let ignore_arg =
      Arg.(
        value & opt_all string []
        & info [ "ignore" ] ~docv:"FIELD"
            ~doc:"Exclude field $(b,FIELD) from comparison. Repeatable.")
    in
    let run a b tolerances ignores json =
      let policies =
        List.map (fun (f, t) -> (f, Poe_diff.Metric_diff.Relative t)) tolerances
        @ List.map (fun f -> (f, Poe_diff.Metric_diff.Ignore)) ignores
      in
      match Poe_diff.Metric_diff.diff_files ~policies a b with
      | Error e ->
          Format.eprintf "poe_sim diff metrics: %s@." e;
          exit 1
      | Ok outcome ->
          print_string
            (if json then Poe_diff.Metric_diff.to_json outcome
             else Poe_diff.Metric_diff.render ~label_a:a ~label_b:b outcome);
          exit (Poe_diff.Metric_diff.exit_code outcome)
    in
    Cmd.v
      (Cmd.info "metrics" ~exits:diff_exits
         ~doc:
           "Diff two metric-shaped artifacts (profile or wallclock JSON, \
            heartbeat JSONL streams, $(b,.budgets) tables) under per-field \
            tolerance policies: $(b,{\"unstable\":true})-tagged fields are \
            stripped, allocation fields compare within a relative \
            threshold, everything else must match exactly. Reports every \
            drifted leaf as a dotted path.")
      Term.(
        const run $ a_arg $ b_arg $ tolerance_arg $ ignore_arg $ json_flag)
  in
  let bench_cmd =
    let dir_arg =
      Arg.(
        required
        & pos 0 (some dir) None
        & info [] ~docv:"DIR"
            ~doc:
              "Trend directory: one subdirectory per bench run, each \
               holding that run's $(b,BENCH_*.json) artifacts (append \
               snapshots with $(b,BENCH_TREND_DIR)).")
    in
    let wall_threshold_arg =
      Arg.(
        value & opt float 0.10
        & info [ "wall-threshold" ] ~docv:"REL"
            ~doc:
              "Relative wall-clock slowdown tolerated vs. the previous \
               same-jobs snapshot before flagging a regression.")
    in
    let out_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "out" ] ~docv:"FILE"
            ~doc:"Also write the $(b,BENCH_trend.json) document to $(docv).")
    in
    let run dir wall_threshold out json =
      match
        Result.bind (Poe_diff.Bench_trend.load_dir dir)
          (Poe_diff.Bench_trend.analyze ~wall_threshold ~dir)
      with
      | Error e ->
          Format.eprintf "poe_sim diff bench: %s@." e;
          exit 1
      | Ok report ->
          (match out with
          | Some path -> save path (Poe_diff.Bench_trend.render_json report)
          | None -> ());
          print_string
            (if json then Poe_diff.Bench_trend.render_json report
             else Poe_diff.Bench_trend.render_table report);
          exit (Poe_diff.Bench_trend.exit_code report)
    in
    Cmd.v
      (Cmd.info "bench" ~exits:diff_exits
         ~doc:
           "Analyze a directory of historical bench snapshots: per-figure \
            wall-clock deltas vs. the previous and best snapshots, with \
            noise-aware regression gating — wall-clock within \
            $(b,--wall-threshold), allocation within 25% between same-jobs \
            runs, and exact-match required for figure payloads and \
            deterministic counters between same-configuration runs.")
      Term.(const run $ dir_arg $ wall_threshold_arg $ out_arg $ json_flag)
  in
  Cmd.group
    (Cmd.info "diff" ~exits:diff_exits
       ~doc:
         "Differential observability: compare two runs' traces or metric \
          artifacts, or gate a bench trend directory. Exit status: 0 \
          identical, 4 diverged, 1 error.")
    [ traces_cmd; metrics_cmd; bench_cmd ]

let list_cmd =
  let run () =
    Format.printf "experiments:@.";
    List.iter
      (fun (id, doc, _) -> Format.printf "  %-10s %s@." id doc)
      experiments
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments.")
    Term.(const run $ const ())

let () =
  let doc = "Proof-of-Execution (EDBT 2021) reproduction driver" in
  match
    Cmd.eval ~catch:false
      (Cmd.group (Cmd.info "poe_sim" ~doc)
         [
           run_cmd; chaos_cmd; analyze_cmd; experiment_cmd; profile_cmd;
           diff_cmd; list_cmd;
         ])
  with
  (* Usage errors (unknown subcommand, bad flag) exit 2, the
     conventional usage-error status, not cmdliner's default 124. *)
  | code -> exit (if code = Cmd.Exit.cli_error then 2 else code)
  | exception (Failure msg | Sys_error msg) ->
      Format.eprintf "poe_sim: %s@." msg;
      exit 1
