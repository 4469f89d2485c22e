(* Live-observability unit tests: heartbeat serialization is byte-stable
   and unstable-taggable, the stall watchdog latches exactly when commit
   progress stops with work outstanding, heartbeat deltas are the
   domain's counter moves, the engine step budget halts runs, flight bundles land on
   disk with a parseable manifest, and the pool's progress notifier
   fires on sequential and pooled paths alike. *)

module Heartbeat = Poe_live.Heartbeat
module Watchdog = Poe_live.Watchdog
module Flight = Poe_live.Flight
module Prof = Poe_prof.Prof
module Trace = Poe_obs.Trace
module Engine = Poe_simnet.Engine
module Json = Poe_obs.Json

let sample ?(seq = 0) ?(ts = 0.1) () =
  {
    Heartbeat.hb_seq = seq;
    hb_ts = ts;
    hb_replicas =
      [
        {
          Heartbeat.r_id = 0;
          r_view = 1;
          r_exec = 42;
          r_commit = 40;
          r_alive = true;
        };
        {
          Heartbeat.r_id = 1;
          r_view = 1;
          r_exec = 41;
          r_commit = 40;
          r_alive = false;
        };
      ];
    hb_queue = 17;
    hb_inflight = 8;
    hb_completed = 123;
    hb_oldest_age = 0.0625;
    hb_deltas = [ ("hub.replies_completed", 55); ("net.msgs_sent", 210) ];
  }

(* ------------------------------------------------------------------ *)
(* Heartbeat serialization                                             *)

let test_heartbeat_line () =
  let line = Heartbeat.line_of_sample (sample ()) in
  Alcotest.(check string) "exact stable line"
    "{\"hb\":0,\"ts\":0.100000000,\"replicas\":[{\"id\":0,\"view\":1,\"exec\":42,\"commit\":40,\"alive\":true},{\"id\":1,\"view\":1,\"exec\":41,\"commit\":40,\"alive\":false}],\"queue\":17,\"inflight\":8,\"completed\":123,\"oldest_age\":0.062500000,\"deltas\":{\"hub.replies_completed\":55,\"net.msgs_sent\":210}}\n"
    line;
  (* With a wall clock the line gains exactly one unstable-tagged field,
     and stripping it restores the stable form byte-for-byte. *)
  let with_wall = Heartbeat.line_of_sample ~wall:1234.5 (sample ()) in
  Alcotest.(check bool) "wall line differs" true (with_wall <> line);
  Alcotest.(check string) "strip restores stable form" line
    (Json.strip_unstable_text with_wall)

let test_heartbeat_roundtrip_json () =
  (* Json.parse must read heartbeat lines back — the same parser
     poe_sim analyze uses for trace lines. *)
  let line = Heartbeat.line_of_sample ~wall:42.0 (sample ()) in
  match Json.parse (String.trim line) with
  | Error e -> Alcotest.failf "heartbeat line does not parse: %s" e
  | Ok json ->
      let geti name =
        match Option.bind (Json.member name json) Json.to_int with
        | Some v -> v
        | None -> Alcotest.failf "missing int field %s" name
      in
      Alcotest.(check int) "hb" 0 (geti "hb");
      Alcotest.(check int) "queue" 17 (geti "queue");
      Alcotest.(check int) "inflight" 8 (geti "inflight");
      Alcotest.(check int) "completed" 123 (geti "completed");
      (match Json.member "replicas" json with
      | Some (Json.Arr (first :: _ as rs)) ->
          Alcotest.(check int) "two replicas" 2 (List.length rs);
          Alcotest.(check (option int)) "first exec" (Some 42)
            (Option.bind (Json.member "exec" first) Json.to_int)
      | _ -> Alcotest.fail "replicas not an array");
      (match Json.member "deltas" json with
      | Some deltas ->
          Alcotest.(check (option int)) "delta value" (Some 55)
            (Option.bind (Json.member "hub.replies_completed" deltas) Json.to_int)
      | None -> Alcotest.fail "no deltas object");
      (match Json.member "wall" json with
      | Some wall ->
          Alcotest.(check bool) "tagged unstable" true
            (Json.member "unstable" wall = Some (Json.Bool true));
          Alcotest.(check (option (float 1e-6))) "wall value" (Some 42.0)
            (Option.bind (Json.member "value" wall) Json.to_float)
      | None -> Alcotest.fail "no wall object")

let test_heartbeat_retention () =
  let hb = Heartbeat.create ~tail:2 ~interval:0.1 () in
  Alcotest.(check (float 1e-9)) "interval" 0.1 (Heartbeat.interval hb);
  for i = 0 to 4 do
    Heartbeat.record ~wall:0.0 hb (sample ~seq:i ~ts:(0.1 *. float_of_int i) ())
  done;
  Alcotest.(check int) "count" 5 (Heartbeat.count hb);
  (match Heartbeat.last hb with
  | Some s -> Alcotest.(check int) "last seq" 4 s.Heartbeat.hb_seq
  | None -> Alcotest.fail "no last sample");
  let all_lines =
    String.split_on_char '\n' (String.trim (Heartbeat.to_jsonl hb))
  in
  Alcotest.(check int) "full stream keeps everything" 5 (List.length all_lines);
  let tail_lines =
    String.split_on_char '\n' (String.trim (Heartbeat.tail_jsonl hb))
  in
  Alcotest.(check int) "tail bounded" 2 (List.length tail_lines);
  Alcotest.(check bool) "tail holds the newest lines" true
    (match List.rev all_lines with
    | newest :: second :: _ -> tail_lines = [ second; newest ]
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)

let test_watchdog_latches_on_stall () =
  let dog = Watchdog.create ~window:0.5 in
  Watchdog.observe dog ~now:0.0 ~progress:10 ~outstanding:4;
  Watchdog.observe dog ~now:0.3 ~progress:20 ~outstanding:4;
  (* progress stops here with work outstanding *)
  Watchdog.observe dog ~now:0.6 ~progress:20 ~outstanding:4;
  Alcotest.(check bool) "not yet (window not elapsed)" false
    (Watchdog.stalled dog);
  Watchdog.observe dog ~now:0.85 ~progress:20 ~outstanding:4;
  Alcotest.(check bool) "latched after window" true (Watchdog.stalled dog);
  (match Watchdog.stall dog with
  | None -> Alcotest.fail "no stall record"
  | Some s ->
      Alcotest.(check string) "reason" "no-commit-progress" s.Watchdog.s_reason;
      Alcotest.(check (float 1e-9)) "stalled since last advance" 0.3
        s.Watchdog.s_since;
      Alcotest.(check (float 1e-9)) "latched at" 0.85 s.Watchdog.s_at;
      Alcotest.(check int) "progress frozen" 20 s.Watchdog.s_progress;
      Alcotest.(check int) "outstanding" 4 s.Watchdog.s_outstanding);
  (* Latched means latched: later progress does not un-stall. *)
  Watchdog.observe dog ~now:1.0 ~progress:99 ~outstanding:0;
  Alcotest.(check bool) "stays latched" true (Watchdog.stalled dog)

let test_watchdog_idle_resets () =
  let dog = Watchdog.create ~window:0.5 in
  Watchdog.observe dog ~now:0.0 ~progress:10 ~outstanding:4;
  (* No progress, but nothing outstanding either: a drained, quiescent
     cluster is not a stall. *)
  Watchdog.observe dog ~now:0.4 ~progress:10 ~outstanding:0;
  Watchdog.observe dog ~now:0.8 ~progress:10 ~outstanding:0;
  Watchdog.observe dog ~now:1.2 ~progress:10 ~outstanding:0;
  Alcotest.(check bool) "idle never stalls" false (Watchdog.stalled dog);
  (* Work arrives after the last idle tick, then nothing moves. *)
  Watchdog.observe dog ~now:1.5 ~progress:10 ~outstanding:3;
  Alcotest.(check bool) "window restarts from idle" false
    (Watchdog.stalled dog);
  Watchdog.observe dog ~now:1.8 ~progress:10 ~outstanding:3;
  Alcotest.(check bool) "latched once window elapses with work" true
    (Watchdog.stalled dog)

let test_watchdog_force () =
  let dog = Watchdog.create ~window:infinity in
  Watchdog.observe dog ~now:0.0 ~progress:5 ~outstanding:2;
  Watchdog.observe dog ~now:100.0 ~progress:5 ~outstanding:2;
  Alcotest.(check bool) "infinite window never self-latches" false
    (Watchdog.stalled dog);
  Watchdog.force dog ~now:100.0 ~outstanding:2 ~reason:"step-budget";
  (match Watchdog.stall dog with
  | Some s ->
      Alcotest.(check string) "forced reason" "step-budget" s.Watchdog.s_reason
  | None -> Alcotest.fail "force did not latch");
  (* The first latch wins. *)
  Watchdog.force dog ~now:200.0 ~outstanding:9 ~reason:"other";
  match Watchdog.stall dog with
  | Some s ->
      Alcotest.(check (float 1e-9)) "first latch kept" 100.0 s.Watchdog.s_at
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Heartbeat counter deltas                                            *)

(* Each sample's deltas are the moves of the domain's [Sum] counters
   since the previous sample: read the domain's cells next to every
   sample and difference them by hand. *)
let test_heartbeat_deltas () =
  let module Cluster = Poe_harness.Cluster in
  let module C = Cluster.Make (Poe_core.Poe_protocol) in
  let config =
    Poe_runtime.Config.make ~n:4 ~batch_size:5 ~clients_per_hub:10 ~n_hubs:1
      ~seed:3 ()
  in
  let c =
    C.build { (Cluster.default_params ~config) with warmup = 0.1; measure = 0.3 }
  in
  let hb = Heartbeat.create ~interval:0.05 () in
  let reads = ref [ Prof.domain_counters () ] in
  let samples = ref [] in
  C.attach_heartbeat c hb ~on_sample:(fun s ->
      reads := Prof.domain_counters () :: !reads;
      samples := s :: !samples);
  C.run c;
  let rec pairs = function
    | newer :: (older :: _ as rest) -> (older, newer) :: pairs rest
    | _ -> []
  in
  let expected =
    List.map
      (fun (older, newer) ->
        List.filteri
          (fun i (_, d) -> d <> 0 && snd Prof.counter_defs.(i) = Prof.Sum)
          (Array.to_list
             (Array.mapi (fun i (n, v) -> (n, v - snd older.(i))) newer)))
      (pairs !reads)
  in
  Alcotest.(check int) "one read per sample" (List.length !samples)
    (List.length expected);
  List.iter2
    (fun s want ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "sample %d" s.Heartbeat.hb_seq)
        want s.Heartbeat.hb_deltas)
    !samples expected;
  Alcotest.(check bool) "no Max counter" true
    (List.for_all
       (fun s -> not (List.mem_assoc "sim.queue_high_water" s.Heartbeat.hb_deltas))
       !samples);
  Alcotest.(check bool) "messages counted" true
    (List.exists (fun s -> List.mem_assoc "net.msgs_sent" s.Heartbeat.hb_deltas) !samples)

(* ------------------------------------------------------------------ *)
(* Engine step budget                                                  *)

let test_engine_step_budget () =
  let run_with budget =
    let engine = Engine.create ~seed:1 () in
    let fired = ref 0 in
    let rec chain i =
      if i < 100 then
        Engine.schedule engine ~delay:0.01 (fun () ->
            incr fired;
            chain (i + 1))
    in
    chain 0;
    Engine.set_step_budget engine budget;
    Engine.run engine ~until:10.0;
    (!fired, Engine.budget_exhausted engine)
  in
  Alcotest.(check (pair int bool))
    "unlimited runs to completion" (100, false) (run_with None);
  Alcotest.(check (pair int bool))
    "budget halts mid-run" (7, true) (run_with (Some 7));
  Alcotest.(check (pair int bool))
    "exact budget still reads exhausted" (100, true)
    (run_with (Some 100))

(* ------------------------------------------------------------------ *)
(* Flight bundles                                                      *)

let fresh_dir name =
  let base = Filename.temp_file "poe_live" "" in
  Sys.remove base;
  Filename.concat base name

let test_flight_bundle () =
  let dir = fresh_dir "nested/bundle" in
  let tr = Trace.create () in
  Trace.set tr;
  Fun.protect ~finally:Trace.clear (fun () ->
      for i = 0 to 9 do
        Trace.instant
          ~ts:(0.01 *. float_of_int i)
          ~node:0 ~cat:"test"
          ~args:[ ("i", Trace.I i) ]
          "tick"
      done);
  let hb = Heartbeat.create ~interval:0.1 () in
  Heartbeat.record ~wall:0.0 hb (sample ());
  let files =
    Flight.dump ~dir ~reason:"stall:no-commit-progress" ~at:1.25 ~wall:77.0
      ~meta:[ ("protocol", "sbft"); ("seed", "3") ]
      ~events:(Trace.events tr)
      ~heartbeats:(Heartbeat.tail_jsonl hb)
      ~state:"replica 0: ok\n" ()
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " exists") true
        (Sys.file_exists (Filename.concat dir name)))
    files;
  Alcotest.(check bool) "manifest listed" true (List.mem "manifest.json" files);
  let manifest =
    Result.get_ok (Json.read_file (Filename.concat dir "manifest.json"))
  in
  (match Json.parse (String.trim manifest) with
  | Error e -> Alcotest.failf "manifest does not parse: %s" e
  | Ok m ->
      Alcotest.(check (option string))
        "reason"
        (Some "stall:no-commit-progress")
        (Option.bind (Json.member "reason" m) Json.to_string);
      Alcotest.(check (option string))
        "meta passthrough" (Some "sbft")
        (Option.bind (Json.member "protocol" m) Json.to_string);
      Alcotest.(check (option int))
        "trace_events" (Some 10)
        (Option.bind (Json.member "trace_events" m) Json.to_int);
      Alcotest.(check bool) "wall tagged unstable" true
        (match Json.member "wall" m with
        | Some wall -> Json.member "unstable" wall = Some (Json.Bool true)
        | None -> false);
      match Json.member "files" m with
      | Some (Json.Arr fs) ->
          Alcotest.(check int)
            "file list complete" (List.length files) (List.length fs)
      | _ -> Alcotest.fail "manifest files not an array");
  (* Stripping the unstable wall field leaves valid, wall-free JSON —
     the byte-comparison form for same-seed bundle diffing. *)
  let stripped = Json.strip_unstable_text manifest in
  Alcotest.(check bool) "strip removes the wall field" true
    (String.length stripped < String.length manifest);
  (match Json.parse (String.trim stripped) with
  | Ok m ->
      Alcotest.(check bool) "no wall left" true (Json.member "wall" m = None)
  | Error e -> Alcotest.failf "stripped manifest does not parse: %s" e);
  let trace_lines =
    String.split_on_char '\n'
      (String.trim
         (Result.get_ok (Json.read_file (Filename.concat dir "trace.jsonl"))))
  in
  Alcotest.(check int) "all trace events exported" 10 (List.length trace_lines);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparseable trace line %S: %s" l e)
    trace_lines;
  Alcotest.(check string) "heartbeats dumped verbatim"
    (Heartbeat.tail_jsonl hb)
    (Result.get_ok (Json.read_file (Filename.concat dir "heartbeats.jsonl")))

let test_flight_window_bound () =
  let dir = fresh_dir "windowed" in
  let tr = Trace.create () in
  Trace.set tr;
  Fun.protect ~finally:Trace.clear (fun () ->
      for i = 0 to Flight.trace_window + 99 do
        Trace.instant ~ts:(0.001 *. float_of_int i) ~node:0 ~cat:"test" "tick"
      done);
  ignore
    (Flight.dump ~dir ~reason:"violation:test" ~at:2.0 ~wall:0.0
       ~events:(Trace.events tr) ~heartbeats:"" ~state:"" ());
  let lines =
    String.split_on_char '\n'
      (String.trim
         (Result.get_ok (Json.read_file (Filename.concat dir "trace.jsonl"))))
  in
  Alcotest.(check int) "trace capped at the window" Flight.trace_window
    (List.length lines)

(* ------------------------------------------------------------------ *)
(* Pool progress notifier                                              *)

let test_pool_notifier () =
  let check_jobs jobs =
    let log = ref [] in
    let mu = Mutex.create () in
    Poe_parallel.Pool.set_job_notifier
      (Some
         (fun ~completed ~total ->
           Mutex.lock mu;
           log := (completed, total) :: !log;
           Mutex.unlock mu));
    let out =
      Poe_parallel.Pool.map_list ~jobs (fun x -> x * x) [ 1; 2; 3; 4; 5 ]
    in
    Poe_parallel.Pool.set_job_notifier None;
    Alcotest.(check (list int)) "results unchanged" [ 1; 4; 9; 16; 25 ] out;
    let calls = List.rev !log in
    Alcotest.(check int)
      (Printf.sprintf "one notification per job (jobs=%d)" jobs)
      5 (List.length calls);
    Alcotest.(check (list int))
      (Printf.sprintf "monotone completion counts (jobs=%d)" jobs)
      [ 1; 2; 3; 4; 5 ] (List.map fst calls);
    List.iter (fun (_, total) -> Alcotest.(check int) "total" 5 total) calls
  in
  check_jobs 1;
  check_jobs 3

let () =
  Alcotest.run "live"
    [
      ( "heartbeat",
        [
          Alcotest.test_case "byte-stable line + unstable wall" `Quick
            test_heartbeat_line;
          Alcotest.test_case "JSON round-trip via analysis parser" `Quick
            test_heartbeat_roundtrip_json;
          Alcotest.test_case "retention: full stream + bounded tail" `Quick
            test_heartbeat_retention;
          Alcotest.test_case "deltas are domain Sum counter moves" `Quick
            test_heartbeat_deltas;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "latches on no-progress with work" `Quick
            test_watchdog_latches_on_stall;
          Alcotest.test_case "idle periods reset the window" `Quick
            test_watchdog_idle_resets;
          Alcotest.test_case "force latches out-of-band reasons" `Quick
            test_watchdog_force;
        ] );
      ( "engine",
        [
          Alcotest.test_case "step budget halts the run" `Quick
            test_engine_step_budget;
        ] );
      ( "flight",
        [
          Alcotest.test_case "bundle on disk" `Quick test_flight_bundle;
          Alcotest.test_case "trace window bound" `Quick
            test_flight_window_bound;
        ] );
      ( "pool",
        [
          Alcotest.test_case "progress notifier fires per job" `Quick
            test_pool_notifier;
        ] );
    ]
