(* The domain pool: submission-order results, per-job exception capture,
   domain-local observability isolation, and the determinism contract —
   fanned-out experiment grids and chaos sweeps return byte-identical
   results for any job count. *)

module Pool = Poe_parallel.Pool
module Trace = Poe_obs.Trace
module E = Poe_harness.Experiments

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)

let test_default_jobs () =
  let j = Pool.default_jobs () in
  Alcotest.(check bool) "at least one job" true (j >= 1);
  Alcotest.(check bool) "bounded by 4 unless POE_JOBS overrides" true
    (j <= max 4 (match Sys.getenv_opt "POE_JOBS" with
                 | Some s -> ( try int_of_string s with _ -> 4)
                 | None -> 4))

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  (* Make early jobs the slowest so completion order inverts submission
     order; the results must come back in submission order anyway. *)
  let work i =
    let spin = (100 - i) * 2000 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := !acc + k
    done;
    ignore !acc;
    i * i
  in
  Alcotest.(check (list int))
    "jobs=4 matches sequential map" (List.map work xs)
    (Pool.map_list ~jobs:4 work xs);
  Alcotest.(check (list int))
    "jobs=1 is the sequential path" (List.map work xs)
    (Pool.map_list ~jobs:1 work xs)

exception Boom of int

let test_run_jobs_captures_exceptions () =
  let thunks =
    [
      (fun () -> 10);
      (fun () -> raise (Boom 1));
      (fun () -> 30);
      (fun () -> raise (Boom 3));
    ]
  in
  let results = Pool.run_list ~jobs:3 thunks in
  let describe = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error (Boom i) -> Printf.sprintf "boom:%d" i
    | Error e -> "unexpected:" ^ Printexc.to_string e
  in
  Alcotest.(check (list string))
    "each slot holds its own job's result or exception"
    [ "ok:10"; "boom:1"; "ok:30"; "boom:3" ]
    (List.map describe results)

let test_map_reraises_first_failure () =
  match Pool.map_list ~jobs:2 (fun i -> if i = 2 then raise (Boom i) else i)
          [ 0; 1; 2; 3 ]
  with
  | exception Boom 2 -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Boom 2"

let test_pool_reuse () =
  let p = Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.(check int) "jobs" 2 (Pool.jobs p);
      for round = 1 to 3 do
        let got = Pool.map p (fun i -> (round * 100) + i) [ 1; 2; 3 ] in
        Alcotest.(check (list int))
          "batch results across reuses"
          [ (round * 100) + 1; (round * 100) + 2; (round * 100) + 3 ]
          got
      done)

(* ------------------------------------------------------------------ *)
(* DLS isolation: two jobs tracing concurrently on distinct domains
   record into disjoint rings, and never into the caller's sink.        *)

let test_dls_isolation () =
  let caller_sink = Trace.create () in
  Trace.set caller_sink;
  Fun.protect ~finally:Trace.clear (fun () ->
      let arrived = Atomic.make 0 in
      let job id () =
        (* A fresh domain starts with no sink. *)
        let started_clean = not (Trace.enabled ()) in
        let mine = Trace.create () in
        Trace.set mine;
        (* Rendezvous so both jobs hold their sinks concurrently — proof
           the two domains' sinks coexist rather than overwrite. Bounded
           spin: bail out (test still checks isolation) rather than hang
           if the scheduler never runs both at once. *)
        Atomic.incr arrived;
        let spins = ref 0 in
        while Atomic.get arrived < 2 && !spins < 200_000_000 do
          incr spins;
          Domain.cpu_relax ()
        done;
        for k = 0 to 9 do
          Trace.instant ~ts:(float_of_int k) ~node:id ~cat:"test"
            (Printf.sprintf "job%d_%d" id k)
        done;
        let names =
          List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events mine)
        in
        Trace.clear ();
        (started_clean, Atomic.get arrived >= 2, names)
      in
      let results = Pool.map_list ~jobs:2 (fun id -> job id ()) [ 0; 1 ] in
      (match results with
      | [ (clean0, both0, names0); (clean1, both1, names1) ] ->
          Alcotest.(check bool) "worker domains start with no sink" true
            (clean0 && clean1);
          Alcotest.(check bool) "jobs overlapped on distinct domains" true
            (both0 && both1);
          Alcotest.(check (list string))
            "job 0 ring holds exactly job 0's events"
            (List.init 10 (Printf.sprintf "job0_%d"))
            names0;
          Alcotest.(check (list string))
            "job 1 ring holds exactly job 1's events"
            (List.init 10 (Printf.sprintf "job1_%d"))
            names1
      | _ -> Alcotest.fail "expected two results");
      Alcotest.(check int) "caller's sink saw none of the workers' events" 0
        (List.length (Trace.events caller_sink)))

(* ------------------------------------------------------------------ *)
(* Determinism: parallel fan-out returns byte-identical series. The
   comparison goes through the diff engine on the real exported
   artifacts, so a future divergence reports *which leaf* moved, not
   just that two strings differ. *)

module Md = Poe_diff.Metric_diff

let check_identical name a b =
  match Md.diff_strings a b with
  | Ok (Md.Identical _) -> ()
  | Ok (Md.Diverged _ as d) ->
      Alcotest.failf "%s diverged between jobs=1 and jobs=4:\n%s" name
        (Md.render ~label_a:"jobs=1" ~label_b:"jobs=4" d)
  | Error e -> Alcotest.failf "%s: diff error: %s" name e

let test_fig9_deterministic_across_jobs () =
  let run jobs =
    E.series_json
      (E.fig9_scalability ~scale:0.1 ~clients_per_hub:200 ~ns:[ 4; 7 ] ~jobs
         E.Standard_nofail)
  in
  check_identical "fig9 artifact" (run 1) (run 4)

let test_fig11_deterministic_across_jobs () =
  let run jobs =
    E.series_json (E.fig11_simulation ~ns:[ 4; 16 ] ~delays_ms:[ 10.; 20. ] ~jobs ())
  in
  check_identical "fig11 artifact" (run 1) (run 4)

let test_chaos_sweep_deterministic_across_jobs () =
  let module Ch = Poe_chaos.Runner.Make (Poe_pbft.Pbft_protocol) in
  let seeds = [ 11; 12; 13; 14 ] in
  (* One JSON summary line per seed plus each run's heartbeat stream —
     the heartbeats' unstable-tagged wall fields are stripped by the
     diff, everything else must match to the byte. *)
  let sweep jobs =
    let outcomes =
      Ch.run_sweep ~n:4 ~horizon:0.6 ~drain:0.6 ~heartbeat_interval:0.2 ~jobs
        ~seeds ()
    in
    let summary =
      String.concat ""
        (List.map
           (fun (seed, (o : Ch.outcome)) ->
             Printf.sprintf
               "{\"seed\":%d,\"schedule\":%s,\"verdict\":%s,\"completed\":%d,\
                \"samples\":%d}\n"
               seed
               (Poe_obs.Json.quote (Poe_chaos.Schedule.to_string o.Ch.schedule))
               (Poe_obs.Json.quote (Ch.verdict o)) o.Ch.completed o.Ch.samples)
           outcomes)
    in
    let heartbeats =
      String.concat "" (List.map (fun (_, o) -> o.Ch.heartbeats) outcomes)
    in
    (summary, heartbeats)
  in
  let summary1, hb1 = sweep 1 in
  let summary4, hb4 = sweep 4 in
  check_identical "chaos sweep summaries" summary1 summary4;
  check_identical "chaos sweep heartbeats" hb1 hb4

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "default_jobs bounds" `Quick test_default_jobs;
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "run_jobs captures exceptions" `Quick
            test_run_jobs_captures_exceptions;
          Alcotest.test_case "map re-raises first failure" `Quick
            test_map_reraises_first_failure;
          Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
        ] );
      ( "dls",
        [ Alcotest.test_case "sink isolation" `Quick test_dls_isolation ] );
      ( "determinism",
        [
          Alcotest.test_case "fig9 jobs=1 = jobs=4" `Slow
            test_fig9_deterministic_across_jobs;
          Alcotest.test_case "fig11 jobs=1 = jobs=4" `Slow
            test_fig11_deterministic_across_jobs;
          Alcotest.test_case "chaos sweep jobs=1 = jobs=4" `Slow
            test_chaos_sweep_deterministic_across_jobs;
        ] );
    ]
