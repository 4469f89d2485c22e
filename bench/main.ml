(* The benchmark harness: regeneration of every table and figure in the
   paper's evaluation (§IV): Fig. 1 (message census), Fig. 7 (upper
   bound), Fig. 8 (signature schemes), Fig. 9(a-l) (scalability / payload
   / batching / out-of-order), Fig. 10 (view-change timeline) and Fig. 11
   (message-delay simulation). Expected-vs-measured commentary lives in
   EXPERIMENTS.md. Per-primitive costs (hashing, threshold signatures, KV
   execution, ...) are measured by bench/e2e/micro.ml.

   Every figure section also lands as a machine-readable BENCH_<fig>.json
   next to the text output, and a traced mini-run per protocol produces
   BENCH_phases.json with the per-phase latency breakdown (schema shared
   with `poe_sim analyze --json`).

   Environment knobs:
     BENCH_SCALE      - multiplies the simulated measurement window (default 1)
     BENCH_QUICK      - if set, restricts replica counts and batch sweeps so
                        the whole run finishes in a couple of minutes
     BENCH_JSON_DIR   - directory for the BENCH_*.json files (default ".")
     POE_JOBS         - worker domains for the experiment grids (default
                        min 4 (cores - 1); 1 = sequential). Each grid point
                        is an independent simulation, reassembled in
                        submission order, so all BENCH_*.json output is
                        byte-identical across job counts. *)

module E = Poe_harness.Experiments

let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some s -> ( try float_of_string s with _ -> 1.0)
  | None -> 1.0

let quick = Sys.getenv_opt "BENCH_QUICK" <> None

let clients_per_hub =
  match Sys.getenv_opt "BENCH_CLIENTS" with
  | Some s -> ( try int_of_string s with _ -> 4000)
  | None -> if quick then 1500 else 4000

let ns = if quick then [ 4; 16; 32 ] else [ 4; 16; 32; 64; 91 ]
let batch_sizes = if quick then [ 10; 100; 400 ] else [ 10; 50; 100; 200; 400 ]
let fig11_ns = if quick then [ 4; 16 ] else [ 4; 16; 128 ]
let jobs = Poe_parallel.Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* Machine-readable output: BENCH_<fig>.json per series                *)

module An = Poe_analysis
module Trace = Poe_obs.Trace
module Json = Poe_obs.Json

let fmt = Format.std_formatter
let section title = Format.fprintf fmt "---- %s ----@.@." title

let json_dir =
  match Sys.getenv_opt "BENCH_JSON_DIR" with Some d -> d | None -> "."

let ok_or_fail = function Ok v -> v | Error e -> failwith e
let save path contents = ok_or_fail (Json.write_file path contents)

let emit (s : E.series) =
  let path = Filename.concat json_dir ("BENCH_" ^ s.E.figure ^ ".json") in
  save path (E.series_json s);
  Format.fprintf fmt "[%s]@.@." path

let show series =
  E.print_series fmt series;
  emit series

(* ------------------------------------------------------------------ *)
(* Self-profiling: every figure runs in a profiled region, and its
   wall-clock, allocation/GC and hot-path counter deltas land in
   BENCH_wallclock.json. Counters merge in from worker domains through
   the pool's job epilogue before each grid call returns, so the deltas
   are identical for any POE_JOBS; wall-clock and GC fields are host
   noise and are tagged unstable in the JSON. *)

module Prof = Poe_prof.Prof

let bench_figures : Prof.bench_figure list ref = ref []

(* A figure's [Max] counters (the event queue's high water) are its own:
   they start from zero at the figure, and [Prof.delta] reads them as
   they stand at its end. *)
let figure name f =
  Prof.restart_max ();
  let c0 = Prof.counters () in
  let a0 = Gc.allocated_bytes () in
  let q0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = Prof.with_region name f in
  let t1 = Unix.gettimeofday () in
  let q1 = Gc.quick_stat () in
  let a1 = Gc.allocated_bytes () in
  let c1 = Prof.counters () in
  let fig_counters = Array.to_list (Prof.delta ~older:c0 ~newer:c1) in
  bench_figures :=
    {
      Prof.fig_name = name;
      fig_wall_s = t1 -. t0;
      fig_alloc_bytes = a1 -. a0;
      fig_minor = q1.Gc.minor_collections - q0.Gc.minor_collections;
      fig_major = q1.Gc.major_collections - q0.Gc.major_collections;
      fig_promoted = q1.Gc.promoted_words -. q0.Gc.promoted_words;
      fig_counters;
    }
    :: !bench_figures;
  r

let emit_wallclock () =
  let path = Filename.concat json_dir "BENCH_wallclock.json" in
  save path
    (Prof.wallclock_json ~jobs ~quick ~scale ~clients:clients_per_hub
       (List.rev !bench_figures));
  Format.fprintf fmt "[%s]@.@." path

let fig1 () =
  section "Fig. 1 (table): consensus cost per decision";
  Format.fprintf fmt
    "paper (analytic, normal case): zyzzyva 1 phase O(n); poe 3 linear@.\
     phases O(3n); pbft 3 phases O(n+2n^2); sbft 5 linear phases O(5n);@.\
     hotstuff chained TS rounds. Measured traffic also includes client@.\
     requests, responses and checkpoints:@.@.";
  figure "fig1" (fun () -> show (E.fig1_message_census ~scale ~jobs ()))

let fig7 () =
  section "Fig. 7: upper bound without consensus";
  figure "fig7" (fun () -> show (E.fig7_upper_bound ~scale ~jobs ()))

let fig8 () =
  section "Fig. 8: signature schemes (PBFT, n=16)";
  figure "fig8" (fun () -> show (E.fig8_signatures ~scale ~jobs ()))

let fig9 () =
  section "Fig. 9(a,b): scalability, standard payload, single backup failure";
  figure "fig9ab" (fun () ->
      show
        (E.fig9_scalability ~scale ~clients_per_hub ~ns ~jobs
           E.Standard_failure));
  section "Fig. 9(c,d): scalability, standard payload, no failures";
  figure "fig9cd" (fun () ->
      show
        (E.fig9_scalability ~scale ~clients_per_hub ~ns ~jobs
           E.Standard_nofail));
  section "Fig. 9(e,f): zero payload, single backup failure";
  figure "fig9ef" (fun () ->
      show (E.fig9_scalability ~scale ~clients_per_hub ~ns ~jobs E.Zero_failure));
  section "Fig. 9(g,h): zero payload, no failures";
  figure "fig9gh" (fun () ->
      show (E.fig9_scalability ~scale ~clients_per_hub ~ns ~jobs E.Zero_nofail));
  section "Fig. 9(i,j): batching under a single backup failure (n=32)";
  figure "fig9ij" (fun () ->
      show (E.fig9_batching ~scale ~clients_per_hub ~batch_sizes ~jobs ()));
  section "Fig. 9(k,l): out-of-order processing disabled";
  figure "fig9kl" (fun () -> show (E.fig9_no_ooo ~scale ~ns ~jobs ()))

let fig10 () =
  section "Fig. 10: throughput timeline across a primary crash (n=32)";
  figure "fig10" @@ fun () ->
  let timelines = E.fig10_view_change ~scale ~jobs () in
  List.iter
    (fun (name, series) ->
      Format.fprintf fmt "%s:@." name;
      List.iter
        (fun (t, rate) -> Format.fprintf fmt "  t=%5.2fs  %10.0f txn/s@." t rate)
        series;
      Format.fprintf fmt "@.")
    timelines;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"figure\":\"fig10\",\"timelines\":[";
  Json.add_sep buf
    (fun (name, series) ->
      Printf.bprintf buf "{\"protocol\":%s,\"points\":[" (Json.quote name);
      Json.add_sep buf
        (fun (t, rate) ->
          Printf.bprintf buf "{\"t\":%.6f,\"txns_per_s\":%.6f}" t rate)
        series;
      Buffer.add_string buf "]}")
    timelines;
  Buffer.add_string buf "]}\n";
  let path = Filename.concat json_dir "BENCH_fig10.json" in
  save path (Buffer.contents buf);
  Format.fprintf fmt "[%s]@.@." path

let fig11 () =
  section "Fig. 11: simulated decisions vs message delay (sequential)";
  figure "fig11" (fun () -> show (E.fig11_simulation ~ns:fig11_ns ~jobs ()));
  section "Fig. 11 (right): with out-of-order processing, window 250";
  figure "fig11_ooo" (fun () ->
      show
        { (E.fig11_simulation ~out_of_order:true ~ns:fig11_ns ~jobs ()) with
          E.figure = "fig11_ooo" })

(* ------------------------------------------------------------------ *)
(* Per-phase latency breakdown: one traced mini-run per protocol       *)

let phase_breakdowns () =
  section "per-phase latency breakdown (traced mini-run per protocol)";
  figure "phases" @@ fun () ->
  let module Config = Poe_runtime.Config in
  let module Cl = Poe_harness.Cluster in
  let run_one (p : E.protocol) =
    let (module P : Poe_runtime.Protocol_intf.S) =
      match p with
      | E.Poe -> (module Poe_core.Poe_protocol)
      | E.Pbft -> (module Poe_pbft.Pbft_protocol)
      | E.Zyzzyva -> (module Poe_zyzzyva.Zyzzyva_protocol)
      | E.Sbft -> (module Poe_sbft.Sbft_protocol)
      | E.Hotstuff -> (module Poe_hotstuff.Hotstuff_protocol)
    in
    let scheme =
      match p with
      | E.Poe | E.Pbft | E.Zyzzyva -> Config.Auth_mac
      | E.Sbft | E.Hotstuff -> Config.Auth_threshold
    in
    let config =
      Config.make ~n:4 ~batch_size:100 ~payload:Config.Standard
        ~replica_scheme:scheme ~out_of_order:true ~clients_per_hub:100
        ~request_timeout:0.5 ~seed:1 ()
    in
    let module C = Cl.Make (P) in
    let params =
      { (Cl.default_params ~config) with warmup = 0.2; measure = 0.4 *. scale }
    in
    let breakdowns = ref [] in
    E.instrumented
      ~on_trace:(fun tr ->
        let life = An.Slot_life.reconstruct (Trace.events tr) in
        breakdowns := An.Attribution.of_result life)
      (fun () ->
        let c = C.build params in
        C.run c);
    !breakdowns
  in
  (* Each traced mini-run installs its sink via [instrumented], which is
     domain-local — so the five protocols can run concurrently, each
     tracing into its own ring. *)
  let breakdowns =
    List.concat (Poe_parallel.Pool.map_list ~jobs run_one E.all_protocols)
  in
  print_string (An.Report.breakdowns_to_string breakdowns);
  let path = Filename.concat json_dir "BENCH_phases.json" in
  save path (An.Report.breakdowns_json breakdowns);
  Format.fprintf fmt "[%s]@.@." path

(* ------------------------------------------------------------------ *)
(* Bench trend: when BENCH_TREND_DIR is set, the run's artifacts are
   appended to the trend directory as a new snapshot (named
   BENCH_TREND_NAME, or the next free NNNN- number) and the trajectory
   vs. previous/best snapshots is reported. The regression *gate* is
   `poe_sim diff bench DIR`; the bench itself only records and reports,
   so a slow CI machine never turns a measurement run into a failure. *)

let append_trend_snapshot () =
  match Sys.getenv_opt "BENCH_TREND_DIR" with
  | None -> ()
  | Some trend_dir ->
      if not (Sys.file_exists trend_dir) then Sys.mkdir trend_dir 0o755;
      let name =
        match Sys.getenv_opt "BENCH_TREND_NAME" with
        | Some n -> n
        | None ->
            let taken =
              Sys.readdir trend_dir |> Array.to_list
              |> List.filter_map (fun d ->
                     if String.length d >= 4 then
                       int_of_string_opt (String.sub d 0 4)
                     else None)
            in
            Printf.sprintf "%04d" (1 + List.fold_left max 0 taken)
      in
      let sub = Filename.concat trend_dir name in
      if not (Sys.file_exists sub) then Sys.mkdir sub 0o755;
      Sys.readdir json_dir |> Array.to_list |> List.sort compare
      |> List.iter (fun f ->
             if
               String.length f > 6
               && String.sub f 0 6 = "BENCH_"
               && Filename.check_suffix f ".json"
               && f <> "BENCH_trend.json"
             then
               save (Filename.concat sub f)
                 (ok_or_fail (Json.read_file (Filename.concat json_dir f))));
      Format.fprintf fmt "[trend snapshot %s]@.@." sub;
      (match Poe_diff.Bench_trend.load_dir trend_dir with
      | Error e -> Format.fprintf fmt "trend: %s@." e
      | Ok snaps -> (
          match Poe_diff.Bench_trend.analyze ~dir:trend_dir snaps with
          | Error e -> Format.fprintf fmt "trend: %s@." e
          | Ok report ->
              save
                (Filename.concat json_dir "BENCH_trend.json")
                (Poe_diff.Bench_trend.render_json report);
              print_string (Poe_diff.Bench_trend.render_table report)))

let () =
  Printf.printf
    "PoE reproduction bench (scale=%.2f%s, jobs=%d) — one section per paper \
     figure\n\n%!"
    scale
    (if quick then ", quick" else "")
    jobs;
  Prof.enable_regions ();
  (* Per-grid-point progress/ETA on stderr for every experiment grid.
     On by default only on a TTY (CI logs stay clean); BENCH_WATCH=1
     forces it, BENCH_WATCH=0 suppresses it. Stderr-only, so all
     BENCH_*.json artifacts remain byte-identical either way. *)
  let watch =
    match Sys.getenv_opt "BENCH_WATCH" with
    | Some "0" -> false
    | Some _ -> true
    | None -> ( try Unix.isatty Unix.stderr with _ -> false)
  in
  if watch then
    Poe_parallel.Pool.set_job_notifier
      (Some (Poe_live.Progress.notifier ~label:"bench grid" ()));
  phase_breakdowns ();
  fig1 ();
  fig7 ();
  fig8 ();
  fig11 ();
  fig10 ();
  fig9 ();
  Prof.disable_regions ();
  emit_wallclock ();
  append_trend_snapshot ();
  Printf.printf "done.\n%!"
