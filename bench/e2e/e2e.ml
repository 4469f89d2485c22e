(* The repository's end-to-end benchmark. See README.md next to this file
   for the metrics, the workloads and how to run each mode:

     e2e.exe [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     e2e.exe compare A_DIR B_DIR

   Without [--workload] every workload runs, one after another, each in a
   fresh child process of this executable, and the results land in
   DIR/run.json. With [--workload] one workload runs in this process and
   the last line of standard output is its result as one JSON object.
   [--trace 0] reports the end-to-end metrics, from runs with tracing and
   metrics off; [--trace 1] reports the per-layer metrics. *)

module W = Workload
module Trace = Poe_obs.Trace
module Metrics = Poe_obs.Metrics
module An = Poe_analysis

let metric = Report.metric

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
    | _ -> scan ()
  in
  scan ()

(* Simulated results a workload must reproduce exactly, run after run
   and with tracing on or off (engine events may differ by the lane
   sampler's ticks, so they are not compared). *)
let same_simulation (a : W.sample) (b : W.sample) =
  Float.equal a.tput b.tput && Float.equal a.lat b.lat && a.replies = b.replies
  && W.counter a "net.msgs_sent" = W.counter b "net.msgs_sent"
  && W.counter a "exec.txns_executed" = W.counter b "exec.txns_executed"

(* Cluster set-up takes milliseconds, and work that short runs up to 70%
   slower during one of the shared host's slow spells. So set-up is timed
   for 3 s (less when [scale] is below 1) in at least fifteen samples,
   each the mean of twenty builds, and reported as the fastest sample.
   The samples come before the first simulation: after it the heap is
   large, and a build then costs more and varies more.

   Simulations repeat while another one still fits in [seconds]; at least
   one runs, and every repeat must reproduce the first exactly. Peak RSS
   is read after the first simulation, so it does not depend on how many
   repeats fit. *)
let end_to_end w ~seed ~seconds ~scale =
  let start = Report.now_ns () in
  let setup_window = 3.0 *. Float.min 1.0 scale in
  let rec setup_samples best n =
    if n >= 15 && Report.seconds_between start (Report.now_ns ()) >= setup_window then best
    else begin
      Gc.compact ();
      setup_samples (Float.min best (W.setup_time w ~seed ~scale ~builds:20)) (n + 1)
    end
  in
  let setup_s = Report.span "setup_samples" (fun () -> setup_samples infinity 0) in
  let simulate () =
    Gc.compact ();
    let t0 = Report.now_ns () in
    let s = W.simulate w ~seed ~scale in
    (s, Report.seconds_between t0 (Report.now_ns ()))
  in
  let first, first_s = simulate () in
  let peak_rss = peak_rss_mb () in
  let rec more acc ~rep_s =
    if Report.seconds_between start (Report.now_ns ()) +. rep_s > seconds then List.rev acc
    else
      let s, rep_s = simulate () in
      more (s :: acc) ~rep_s
  in
  let runs = first :: more [] ~rep_s:first_s in
  let failures =
    first.W.failures
    @
    if List.for_all (same_simulation first) runs then []
    else [ "a repeated simulation differed from the first" ]
  in
  let metrics =
    [
      metric "setup_s" "s" setup_s;
      metric "run_s" "s" (Report.median (List.map (fun (s : W.sample) -> s.run_s) runs));
      metric "peak_rss_mb" "MB" peak_rss;
      metric "alloc_bytes_per_reply" "B"
        (Report.div first.alloc_bytes (float_of_int first.replies));
      metric "sim_tput_txn_s" "txn/s" first.tput;
      metric "sim_lat_avg_ms" "ms" (first.lat *. 1000.0);
    ]
  in
  (first, failures, metrics)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)

let phases = [ "propose"; "support"; "certify"; "prepare"; "commit"; "execute" ]

(* Run [f] with standard output sent to [path]: [instrumented] prints its
   metrics table there, and this process's standard output carries only
   results. *)
let stdout_to path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      Format.pp_print_flush Format.std_formatter ();
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)

let per_layer w ~seed ~scale ~out =
  let untraced = Report.span "untraced" (fun () -> W.simulate w ~seed ~scale) in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let micro =
    Micro.run_all ~round_s:(if scale < 1.0 then 0.0005 else 0.02)
  in
  let registry = ref None and tracer = ref None in
  let traced =
    Report.span "traced" @@ fun () ->
    stdout_to (Filename.concat out (w.W.name ^ ".metrics.txt")) @@ fun () ->
    Poe_harness.Experiments.instrumented ~metrics:true
      ~on_trace:(fun tr -> tracer := Some tr)
      (fun () ->
        registry := Metrics.current_registry ();
        W.simulate w ~seed ~scale)
  in
  let tr = Option.get !tracer and reg = Option.get !registry in
  Report.span "trace_export" (fun () ->
      Trace.write_file tr ~format:Trace.Jsonl
        ~path:(Filename.concat out (w.W.name ^ ".trace.jsonl")));
  let s = untraced in
  let c = W.counter s in
  let run_s = s.run_s in
  let ratio a b = Report.div (float_of_int a) (float_of_int b) in
  let per_reply v = ratio v s.replies in
  let hist_ms name q =
    1000.0 *. Metrics.quantile (Metrics.histogram reg name) q
  in
  let own op = Micro.own_ns micro op in
  let share ns_total = Report.div (ns_total *. 1e-9) run_s in
  let materialized = (w.W.config ~seed).Poe_runtime.Config.materialize in
  let shares =
    [
      ("engine", share (float_of_int (c "sim.events_popped") *. own "engine.schedule_step"));
      ("net", share (float_of_int (c "net.msgs_sent") *. own "network.send_deliver"));
      ("hub", share (float_of_int (c "hub.replies_completed") *. own "hub.round_trip"));
      ( "batch",
        share
          (float_of_int (c "msg.batched_requests")
          *. own (if materialized then "batch.mat_100" else "batch.cost_100")
          /. 100.0) );
      ( "exec",
        if materialized then
          share
            ((float_of_int (c "exec.txns_executed") *. own "exec.apply_10" /. 10.0)
            +. (float_of_int (c "exec.rollbacks") *. own "exec.rollback_1"))
        else 0.0 );
      ("crypto", share (float_of_int (c "sha256.blocks_compressed") *. own "sha256.block"));
    ]
  in
  let breakdown =
    Report.span "attribution" @@ fun () ->
    let (module P) = W.protocol_module w.W.protocol in
    List.find_opt
      (fun (b : An.Attribution.breakdown) -> String.equal b.protocol P.name)
      (An.Attribution.of_result (An.Slot_life.reconstruct (Trace.events tr)))
  in
  let phase_p50 name =
    match breakdown with
    | None -> 0.0
    | Some b -> (
        match
          List.find_opt
            (fun (p : An.Attribution.phase_stats) -> String.equal p.phase name)
            b.phases
        with
        | Some p -> p.p50 *. 1000.0
        | None -> 0.0)
  in
  let failures =
    if same_simulation s traced then []
    else [ "tracing changed the simulation" ]
  in
  let metrics =
    [
      metric "engine.events_per_reply" "events/reply" (per_reply (c "sim.events_popped"));
      metric "engine.queue_high_water" "events" (float_of_int (c "sim.queue_high_water"));
      metric "engine.events_per_s" "1/s" (float_of_int (c "sim.events_popped") /. run_s);
      metric "engine.est_share" "ratio" (List.assoc "engine" shares);
      metric "net.msgs_per_reply" "msgs/reply" (per_reply (c "net.msgs_sent"));
      metric "net.drop_ratio" "ratio" (ratio (c "net.msgs_dropped") (c "net.msgs_sent"));
      metric "net.est_share" "ratio" (List.assoc "net" shares);
      metric "server.worker_util" "ratio" s.worker_util;
      metric "server.io_util" "ratio" s.io_util;
      metric "server.execute_util" "ratio" s.execute_util;
      metric "server.worker_queue_p99_ms" "sim_ms" (hist_ms "lane.worker.queue_depth" 0.99);
      metric "hub.submitted_per_reply" "reqs/reply" (per_reply (c "hub.requests_submitted"));
      metric "hub.est_share" "ratio" (List.assoc "hub" shares);
      metric "client.lat_p50_ms" "sim_ms" (hist_ms "client.latency" 0.5);
      metric "client.lat_p99_ms" "sim_ms" (hist_ms "client.latency" 0.99);
      metric "batch.fill" "reqs/batch"
        (ratio (c "msg.batched_requests") (c "msg.batches_built"));
      metric "batch.est_share" "ratio" (List.assoc "batch" shares);
      metric "exec.txns_per_reply" "txns/reply" (per_reply (c "exec.txns_executed"));
      metric "exec.rollbacks" "count" (float_of_int (c "exec.rollbacks"));
      metric "exec.est_share" "ratio" (List.assoc "exec" shares);
      metric "exec.wasted_ratio" "ratio"
        (ratio (c "exec.rollbacks" + c "exec.slots_abandoned") (c "exec.batches_executed"));
      metric "crypto.sha256_blocks_per_reply" "blocks/reply"
        (per_reply (c "sha256.blocks_compressed"));
      metric "crypto.est_share" "ratio" (List.assoc "crypto" shares);
      metric "proto.msgs_per_decision" "msgs/decision"
        (Report.div (float_of_int s.window_msgs) s.decisions);
      metric "proto.bytes_per_decision" "B/decision"
        (Report.div (float_of_int s.window_bytes) s.decisions);
    ]
    @ List.map (fun p -> metric ("phase." ^ p ^ ".p50_ms") "sim_ms" (phase_p50 p)) phases
    @ [
        metric "obs.trace_overhead" "ratio" (traced.run_s /. run_s);
        metric "obs.trace_dropped" "events" (float_of_int (Trace.dropped tr));
        metric "gc.minor_collections" "count" (float_of_int s.minor_gcs);
        metric "gc.major_collections" "count" (float_of_int s.major_gcs);
        metric "gc.promoted_bytes_per_reply" "B/reply"
          (Report.div s.promoted_bytes (float_of_int s.replies));
        metric "gc.top_heap_mb" "MB" top_heap_mb;
      ]
    @ List.concat_map
        (fun (r : Micro.result) ->
          [
            metric ("micro." ^ r.op ^ ".ns") "ns" r.ns;
            metric ("micro." ^ r.op ^ ".words") "words" r.words;
          ])
        micro
    @ [
        metric "unexplained_share" "ratio"
          (1.0 -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 shares);
        metric "sim_outage_s" "sim_s" s.outage;
        metric "failed_ratio" "ratio"
          (ratio (c "hub.retransmits") (c "hub.requests_submitted"));
      ]
  in
  (s, s.failures @ failures, metrics)

(* ------------------------------------------------------------------ *)
(* One workload in this process                                        *)

let run_workload w ~seed ~seconds ~trace ~scale ~out =
  Report.mkdir_p out;
  let sample, failures, metrics =
    if trace then per_layer w ~seed ~scale ~out
    else end_to_end w ~seed ~seconds ~scale
  in
  if trace then
    Report.write_file (Filename.concat out (w.W.name ^ ".spans.json")) (Report.spans_json ());
  List.iter
    (fun (m : Report.metric) ->
      Printf.printf "%s %s %.17g %s\n" w.W.name m.name m.value m.unit)
    metrics;
  List.iter (fun f -> Printf.eprintf "%s: check failed: %s\n" w.W.name f) failures;
  let correct = failures = [] in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!"
    correct sample.W.attempted sample.W.failed (Report.metrics_json metrics);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process                             *)

let git_rev () =
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
    let rev = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> rev | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let run_all ~seed ~seconds ~trace ~scale ~out =
  Report.mkdir_p out;
  let results =
    List.map
      (fun w ->
        let args =
          [| Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int seed;
             "--seconds"; Printf.sprintf "%.17g" seconds; "--trace"; (if trace then "1" else "0");
             "--scale"; Printf.sprintf "%.17g" scale; "--out"; out |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let rec read last =
          match input_line ic with
          | line ->
              if not (String.starts_with ~prefix:"{" line) then print_endline line;
              read line
          | exception End_of_file -> last
        in
        let last = read "" in
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        if not ok then Printf.printf "%s FAILED\n%!" w.W.name;
        (w.W.name, ok, last))
      W.all
  in
  let path = Filename.concat out "run.json" in
  Report.write_file path
    (Printf.sprintf
       "{\"seed\":%d,\"trace\":%d,\"seconds\":%s,\"scale\":%s,\"nproc\":%d,\
        \"ocaml\":%s,\"git_rev\":%s,\"workloads\":{%s}}\n"
       seed (if trace then 1 else 0) (Report.jnum seconds) (Report.jnum scale)
       (Domain.recommended_domain_count ()) (Report.jstr Sys.ocaml_version)
       (Report.jstr (git_rev ()))
       (String.concat ","
          (List.map
             (fun (name, ok, last) ->
               Printf.sprintf "\n%s:%s" (Report.jstr name) (if ok then last else "null"))
             results)));
  Printf.printf "wrote %s\n%!" path;
  if not (List.for_all (fun (_, ok, _) -> ok) results) then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let run_seconds = 20.0

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> exit (Compare.main rest)
  | _ ->
      let workload = ref None and seed = ref 1 and seconds = ref run_seconds in
      let trace = ref 0 and scale = ref 1.0 in
      let out =
        ref (Filename.concat (Filename.get_temp_dir_name ()) "poe-e2e")
      in
      let spec =
        [
          ( "--workload",
            Arg.String (fun s -> workload := Some s),
            "NAME run one workload in this process ("
            ^ String.concat ", " (List.map (fun w -> w.W.name) W.all)
            ^ ")" );
          ("--seed", Arg.Set_int seed, "N seed of every workload (default 1)");
          ( "--seconds",
            Arg.Set_float seconds,
            Printf.sprintf "S host seconds of repeated simulations (default %g)" run_seconds );
          ("--trace", Arg.Set_int trace, "0|1 end-to-end (0, default) or per-layer (1) metrics");
          ("--scale", Arg.Set_float scale, "F multiply every simulated horizon (default 1)");
          ("--out", Arg.Set_string out, "DIR where results and traces go (default $TMPDIR/poe-e2e)");
        ]
      in
      let usage = "e2e.exe [OPTIONS] | e2e.exe compare A_DIR B_DIR" in
      Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
      if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
      if !scale <= 0.0 then (prerr_endline "--scale must be positive"; exit 2);
      let trace = !trace = 1 in
      match !workload with
      | None -> run_all ~seed:!seed ~seconds:!seconds ~trace ~scale:!scale ~out:!out
      | Some name -> (
          match W.find name with
          | Some w ->
              run_workload w ~seed:!seed ~seconds:!seconds ~trace ~scale:!scale ~out:!out
          | None ->
              prerr_endline ("unknown workload " ^ name);
              exit 2)
