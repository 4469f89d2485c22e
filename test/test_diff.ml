(* The differential observability layer: structural trace diffing with
   first-divergence localization, tolerance-aware metric/profile diffing,
   and the bench trend tracker. Hostile inputs — truncated rings,
   mid-line garbage, protocol mismatches, empty traces — must produce
   structured outcomes, never exceptions or false divergences. *)

module Trace = Poe_obs.Trace
module Json = Poe_obs.Json
module Td = Poe_diff.Trace_diff
module Md = Poe_diff.Metric_diff
module Bt = Poe_diff.Bench_trend

(* ------------------------------------------------------------------ *)
(* Synthetic traces                                                    *)

let ev ?(tid = 0) ?(view = 0) ?(seqno = 0) ?(args = []) ~ts ~node ~cat ~name ph
    =
  { Trace.ts; node; tid; cat; name; ph; view; seqno; args }

(* One committed slot: slot[propose[...]execute[...]] *)
let slot_events ?(cat = "poe") ~node ~seqno t0 =
  [
    ev ~ts:t0 ~node ~cat ~name:"slot" ~seqno Trace.Span_begin;
    ev ~ts:t0 ~node ~cat ~name:"propose" ~seqno Trace.Span_begin;
    ev ~ts:(t0 +. 0.01) ~node ~cat ~name:"propose" ~seqno Trace.Span_end;
    ev ~ts:(t0 +. 0.01) ~node ~cat ~name:"execute" ~seqno Trace.Span_begin;
    ev ~ts:(t0 +. 0.02) ~node ~cat ~name:"execute" ~seqno Trace.Span_end;
    ev ~ts:(t0 +. 0.02) ~node ~cat ~name:"slot" ~seqno Trace.Span_end;
  ]

let two_slots ?cat () =
  slot_events ?cat ~node:0 ~seqno:0 0.0 @ slot_events ?cat ~node:1 ~seqno:1 0.05

let test_trace_self_identical () =
  let a = two_slots () in
  match Td.diff_events ~a ~b:a () with
  | Td.Identical n ->
      Alcotest.(check int) "events compared" (List.length a) n;
      Alcotest.(check int) "exit 0" 0 (Td.exit_code (Td.Identical n))
  | o -> Alcotest.failf "expected identical, got: %s" (Td.render o)

let test_trace_divergence_coordinates () =
  let a = two_slots () in
  (* Perturb the execute-begin of slot 1 on node 1 (index 9): view 0 -> 7. *)
  let b =
    List.mapi
      (fun i e -> if i = 9 then { e with Trace.view = 7 } else e)
      a
  in
  match Td.diff_events ~a ~b () with
  | Td.Diverged d ->
      Alcotest.(check int) "index" 9 d.Td.d_index;
      Alcotest.(check int) "node" 1 d.Td.d_node;
      Alcotest.(check int) "seqno" 1 d.Td.d_seqno;
      Alcotest.(check string) "phase" "execute" d.Td.d_phase;
      Alcotest.(check string) "field" "view" d.Td.d_field;
      Alcotest.(check int) "exit 4" 4 (Td.exit_code (Td.Diverged d));
      Alcotest.(check bool) "context window nonempty" true
        (d.Td.d_context_a <> [] && d.Td.d_context_b <> [])
  | o -> Alcotest.failf "expected divergence, got: %s" (Td.render o)

let test_trace_empty_vs_nonempty () =
  match Td.diff_events ~a:[] ~b:(two_slots ()) () with
  | Td.Incompatible _ as o ->
      Alcotest.(check int) "exit 1" 1 (Td.exit_code o)
  | o -> Alcotest.failf "expected incompatible, got: %s" (Td.render o)

let test_trace_both_empty () =
  match Td.diff_events ~a:[] ~b:[] () with
  | Td.Identical 0 -> ()
  | o -> Alcotest.failf "expected identical(0), got: %s" (Td.render o)

let test_trace_protocol_mismatch () =
  match
    Td.diff_events ~a:(two_slots ~cat:"poe" ()) ~b:(two_slots ~cat:"pbft" ()) ()
  with
  | Td.Incompatible detail ->
      Alcotest.(check bool) "mentions both protocols" true
        (let has s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         has detail "poe" && has detail "pbft")
  | o -> Alcotest.failf "expected incompatible, got: %s" (Td.render o)

let drop k l = List.filteri (fun i _ -> i >= k) l

let test_trace_evicted_prefix_one_side () =
  let a = two_slots () in
  (* Ring-evict slot 0's opening edges on side B only: the orphaned
     propose-end marks the slot truncated, so index alignment would lie. *)
  let b = drop 2 a in
  match Td.diff_events ~a ~b () with
  | Td.Incomparable_prefix { side = Td.B; _ } as o ->
      Alcotest.(check int) "exit 4" 4 (Td.exit_code o)
  | o -> Alcotest.failf "expected incomparable-prefix(b), got: %s" (Td.render o)

let test_trace_both_evicted_never_diverged () =
  let a = two_slots () in
  let trunc_a = drop 2 a in
  (* The other side evicted *and* perturbed: alignment is untrustworthy,
     so this must not be claimed as a divergence. *)
  let trunc_b =
    drop 2 (List.map (fun e -> { e with Trace.ts = e.Trace.ts +. 0.001 }) a)
  in
  match Td.diff_events ~a:trunc_a ~b:trunc_b () with
  | Td.Incomparable_prefix _ -> ()
  | Td.Diverged _ -> Alcotest.fail "false divergence on doubly-evicted traces"
  | o -> Alcotest.failf "expected incomparable-prefix, got: %s" (Td.render o)

let test_trace_strict_prefix () =
  let a = two_slots () in
  let b = List.filteri (fun i _ -> i < List.length a - 1) a in
  match Td.diff_events ~a ~b () with
  | Td.Diverged d ->
      Alcotest.(check string) "field" "event-count" d.Td.d_field;
      Alcotest.(check int) "index = common length" (List.length b) d.Td.d_index
  | o -> Alcotest.failf "expected event-count divergence, got: %s" (Td.render o)

let jsonl_of events =
  let b = Buffer.create 1024 in
  Trace.export_jsonl_events events b;
  Buffer.contents b

let test_trace_files_midline_garbage () =
  let a = two_slots () in
  let pa = "diff_garbage_a.jsonl" and pb = "diff_garbage_b.jsonl" in
  let lines = String.split_on_char '\n' (jsonl_of a) in
  (* Inject a torn write mid-file on one side: the reader skips it, so
     the surviving events still compare clean. *)
  let torn =
    String.concat "\n"
      (List.concat_map
         (fun l -> if l = List.nth lines 3 then [ {|{"ts":0.0,"node|}; l ] else [ l ])
         lines)
  in
  Result.get_ok (Json.write_file pa torn);
  Result.get_ok (Json.write_file pb (jsonl_of a));
  (match Td.diff_files pa pb with
  | Ok (Td.Identical _) -> ()
  | Ok o -> Alcotest.failf "expected identical after skip, got: %s" (Td.render o)
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  (* A file where nothing parses is a structured error, not an exception. *)
  let pg = "diff_garbage_only.jsonl" in
  Result.get_ok (Json.write_file pg "not json at all\nstill not json\n");
  match Td.diff_files pg pb with
  | Error _ -> ()
  | Ok o -> Alcotest.failf "expected error on garbage file, got: %s" (Td.render o)

(* ------------------------------------------------------------------ *)
(* Metric diff                                                         *)

let test_metric_strip_unstable () =
  let doc w =
    Printf.sprintf
      {|{"counters":{"a":1},"wall":{"unstable":true,"value":%g},"gc":{"unstable":true,"minor":%d}}|}
      w (int_of_float (w *. 100.))
  in
  match Md.diff_strings (doc 1.0) (doc 9.9) with
  | Ok (Md.Identical _) -> ()
  | Ok o -> Alcotest.failf "unstable fields must be stripped:\n%s" (Md.render o)
  | Error e -> Alcotest.failf "diff error: %s" e

let test_metric_counter_drift () =
  match
    Md.diff_strings {|{"counters":{"x":1,"y":2}}|} {|{"counters":{"x":1,"y":3}}|}
  with
  | Ok (Md.Diverged [ m ]) ->
      Alcotest.(check string) "path" "counters.y" m.Md.m_path;
      Alcotest.(check string) "kind" "value" m.Md.m_kind
  | Ok o -> Alcotest.failf "expected one mismatch, got:\n%s" (Md.render o)
  | Error e -> Alcotest.failf "diff error: %s" e

let test_metric_relative_tolerance () =
  let doc alloc = Printf.sprintf {|{"allocated_bytes":%g}|} alloc in
  (match Md.diff_strings (doc 100.) (doc 120.) with
  | Ok (Md.Identical _) -> ()
  | Ok o -> Alcotest.failf "20%% alloc drift is within policy:\n%s" (Md.render o)
  | Error e -> Alcotest.failf "diff error: %s" e);
  match Md.diff_strings (doc 100.) (doc 200.) with
  | Ok (Md.Diverged [ m ]) ->
      Alcotest.(check string) "path" "allocated_bytes" m.Md.m_path
  | Ok o -> Alcotest.failf "100%% alloc drift must fail:\n%s" (Md.render o)
  | Error e -> Alcotest.failf "diff error: %s" e

let test_metric_missing_field () =
  match Md.diff_strings {|{"a":1,"b":2}|} {|{"a":1}|} with
  | Ok (Md.Diverged [ m ]) ->
      Alcotest.(check string) "path" "b" m.Md.m_path;
      Alcotest.(check string) "kind" "missing-b" m.Md.m_kind
  | Ok o -> Alcotest.failf "expected missing-b, got:\n%s" (Md.render o)
  | Error e -> Alcotest.failf "diff error: %s" e

let test_metric_budgets_table () =
  let tbl per =
    Printf.sprintf
      "replies_completed 100\nconsensus.slot_started 102 %f\nnet.msgs_sent 900 %f\n"
      1.02 per
  in
  (match Md.diff_strings (tbl 9.0) (tbl 9.0) with
  | Ok (Md.Identical _) -> ()
  | Ok o -> Alcotest.failf "identical budgets diverged:\n%s" (Md.render o)
  | Error e -> Alcotest.failf "diff error: %s" e);
  match Md.diff_strings (tbl 9.0) (tbl 12.5) with
  | Ok (Md.Diverged [ m ]) ->
      Alcotest.(check string) "path" "net.msgs_sent.per_reply" m.Md.m_path
  | Ok o -> Alcotest.failf "expected budget drift, got:\n%s" (Md.render o)
  | Error e -> Alcotest.failf "diff error: %s" e

let test_metric_hostile_inputs () =
  (match Md.diff_strings "" "{}" with
  | Error _ -> ()
  | Ok o -> Alcotest.failf "empty input must error, got:\n%s" (Md.render o));
  match Md.diff_strings "complete garbage ! !" "complete garbage ! !" with
  | Error _ -> ()
  | Ok o -> Alcotest.failf "unparseable input must error, got:\n%s" (Md.render o)

let test_metric_jsonl_stream () =
  let line i w =
    Printf.sprintf
      {|{"seq":%d,"completed":%d,"wall":{"unstable":true,"value":%g}}|} i
      (i * 10) w
  in
  let stream w = line 1 w ^ "\n" ^ line 2 (w *. 2.) ^ "\n" in
  match Md.diff_strings (stream 0.5) (stream 0.9) with
  | Ok (Md.Identical _) -> ()
  | Ok o -> Alcotest.failf "heartbeat streams diverged:\n%s" (Md.render o)
  | Error e -> Alcotest.failf "diff error: %s" e

let test_metric_tolerance_override () =
  let doc v = Printf.sprintf {|{"special":%g}|} v in
  match
    Md.diff_strings ~policies:[ ("special", Md.Relative 0.5) ] (doc 10.)
      (doc 13.)
  with
  | Ok (Md.Identical _) -> ()
  | Ok o -> Alcotest.failf "override not applied:\n%s" (Md.render o)
  | Error e -> Alcotest.failf "diff error: %s" e

(* ------------------------------------------------------------------ *)
(* Bench trend                                                         *)

let wallclock ?(jobs = 1) ?(wall = 1.0) ?(alloc = 1000.) ?(counter = 100) () =
  Printf.sprintf
    {|{"schema":"poe-bench-wallclock-v1","jobs":%d,"quick":true,"scale":0.2,"clients":400,"figures":[{"figure":"fig1","wall_s":{"unstable":true,"value":%f},"allocated_bytes":%.0f,"gc":{"unstable":true,"minor_collections":3,"major_collections":0,"promoted_words":10},"counters":{"hub.replies_completed":%d},"budgets":{"net.msgs_sent":9.0}}]}|}
    jobs wall alloc counter

let payload x =
  Printf.sprintf
    {|{"figure":"fig1","title":"t","x_label":"n","points":[{"protocol":"poe","x":4.0,"throughput":%f,"latency":0.01,"decisions":10.0,"messages_per_decision":5.0,"bytes_per_decision":100.0}]}|}
    x

let fresh_trend_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "trend_test_%d" !n in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    dir

let add_snapshot dir name ~wallclock_doc ~payload_doc =
  let sub = Filename.concat dir name in
  if not (Sys.file_exists sub) then Sys.mkdir sub 0o755;
  let write name doc =
    Result.get_ok (Json.write_file (Filename.concat sub name) doc)
  in
  write "BENCH_wallclock.json" wallclock_doc;
  Option.iter (write "BENCH_fig1.json") payload_doc

let analyze dir =
  match Result.bind (Bt.load_dir dir) (Bt.analyze ~dir) with
  | Ok r -> r
  | Error e -> Alcotest.failf "trend analyze failed: %s" e

let test_trend_clean () =
  let dir = fresh_trend_dir () in
  add_snapshot dir "0001" ~wallclock_doc:(wallclock ())
    ~payload_doc:(Some (payload 5000.));
  add_snapshot dir "0002"
    ~wallclock_doc:(wallclock ~wall:1.05 ())
    ~payload_doc:(Some (payload 5000.));
  let r = analyze dir in
  Alcotest.(check bool) "no regressions" false (Bt.regressed r);
  Alcotest.(check int) "exit 0" 0 (Bt.exit_code r);
  Alcotest.(check (option string)) "previous" (Some "0001") r.Bt.rp_previous;
  (match r.Bt.rp_figures with
  | [ t ] ->
      Alcotest.(check bool) "delta vs prev present" true
        (t.Bt.t_delta_prev <> None)
  | _ -> Alcotest.fail "expected one figure");
  match Json.parse (Bt.render_json r) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "BENCH_trend.json does not parse: %s" e

let test_trend_wall_regression () =
  let dir = fresh_trend_dir () in
  add_snapshot dir "0001" ~wallclock_doc:(wallclock ())
    ~payload_doc:(Some (payload 5000.));
  (* A 20% slowdown against a 10% threshold must gate. *)
  add_snapshot dir "0002"
    ~wallclock_doc:(wallclock ~wall:1.20 ())
    ~payload_doc:(Some (payload 5000.));
  let r = analyze dir in
  Alcotest.(check bool) "regressed" true (Bt.regressed r);
  Alcotest.(check int) "exit 4" 4 (Bt.exit_code r);
  match r.Bt.rp_regressions with
  | [ g ] -> Alcotest.(check string) "kind" "wall" g.Bt.r_kind
  | gs -> Alcotest.failf "expected one wall regression, got %d" (List.length gs)

let test_trend_wall_not_gated_across_jobs () =
  let dir = fresh_trend_dir () in
  add_snapshot dir "0001" ~wallclock_doc:(wallclock ~jobs:4 ()) ~payload_doc:None;
  add_snapshot dir "0002"
    ~wallclock_doc:(wallclock ~jobs:1 ~wall:2.0 ())
    ~payload_doc:None;
  let r = analyze dir in
  Alcotest.(check bool) "wall not comparable across job counts" false
    (Bt.regressed r)

let test_trend_counter_regression () =
  let dir = fresh_trend_dir () in
  add_snapshot dir "0001" ~wallclock_doc:(wallclock ()) ~payload_doc:None;
  add_snapshot dir "0002"
    ~wallclock_doc:(wallclock ~counter:101 ())
    ~payload_doc:None;
  let r = analyze dir in
  match r.Bt.rp_regressions with
  | [ g ] -> Alcotest.(check string) "kind" "counters" g.Bt.r_kind
  | gs ->
      Alcotest.failf "expected one counters regression, got:\n%s"
        (String.concat "\n" (List.map (fun g -> g.Bt.r_kind) gs))

let test_trend_payload_regression () =
  let dir = fresh_trend_dir () in
  add_snapshot dir "0001" ~wallclock_doc:(wallclock ())
    ~payload_doc:(Some (payload 5000.));
  add_snapshot dir "0002" ~wallclock_doc:(wallclock ())
    ~payload_doc:(Some (payload 4900.));
  let r = analyze dir in
  (match r.Bt.rp_regressions with
  | [ g ] -> Alcotest.(check string) "kind" "payload" g.Bt.r_kind
  | gs -> Alcotest.failf "expected one payload regression, got %d" (List.length gs));
  (* A payload present only in the previous snapshot is lost coverage. *)
  let dir2 = fresh_trend_dir () in
  add_snapshot dir2 "0001" ~wallclock_doc:(wallclock ())
    ~payload_doc:(Some (payload 5000.));
  add_snapshot dir2 "0002" ~wallclock_doc:(wallclock ()) ~payload_doc:None;
  let r2 = analyze dir2 in
  match r2.Bt.rp_regressions with
  | [ g ] -> Alcotest.(check string) "kind" "payload" g.Bt.r_kind
  | gs -> Alcotest.failf "expected one payload regression, got %d" (List.length gs)

let test_trend_hostile_inputs () =
  (match Bt.load_dir "does_not_exist_anywhere" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing dir must error");
  let dir = fresh_trend_dir () in
  (match Bt.load_dir dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty trend dir must error");
  let sub = Filename.concat dir "0001" in
  Sys.mkdir sub 0o755;
  Result.get_ok
    (Json.write_file (Filename.concat sub "BENCH_wallclock.json") "torn write{{{");
  match Bt.load_dir dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed wallclock must error"

let test_trend_single_snapshot () =
  let dir = fresh_trend_dir () in
  add_snapshot dir "0001" ~wallclock_doc:(wallclock ())
    ~payload_doc:(Some (payload 5000.));
  let r = analyze dir in
  Alcotest.(check bool) "baseline alone is clean" false (Bt.regressed r);
  Alcotest.(check (option string)) "no previous" None r.Bt.rp_previous

let () =
  Alcotest.run "diff"
    [
      ( "trace",
        [
          Alcotest.test_case "self-diff identical" `Quick
            test_trace_self_identical;
          Alcotest.test_case "divergence coordinates" `Quick
            test_trace_divergence_coordinates;
          Alcotest.test_case "empty vs nonempty" `Quick
            test_trace_empty_vs_nonempty;
          Alcotest.test_case "both empty" `Quick test_trace_both_empty;
          Alcotest.test_case "protocol mismatch" `Quick
            test_trace_protocol_mismatch;
          Alcotest.test_case "evicted prefix one side" `Quick
            test_trace_evicted_prefix_one_side;
          Alcotest.test_case "both evicted never diverges" `Quick
            test_trace_both_evicted_never_diverged;
          Alcotest.test_case "strict prefix" `Quick test_trace_strict_prefix;
          Alcotest.test_case "mid-line garbage files" `Quick
            test_trace_files_midline_garbage;
        ] );
      ( "metric",
        [
          Alcotest.test_case "unstable stripped" `Quick
            test_metric_strip_unstable;
          Alcotest.test_case "counter drift" `Quick test_metric_counter_drift;
          Alcotest.test_case "relative tolerance" `Quick
            test_metric_relative_tolerance;
          Alcotest.test_case "missing field" `Quick test_metric_missing_field;
          Alcotest.test_case "budgets table" `Quick test_metric_budgets_table;
          Alcotest.test_case "hostile inputs" `Quick test_metric_hostile_inputs;
          Alcotest.test_case "jsonl stream" `Quick test_metric_jsonl_stream;
          Alcotest.test_case "tolerance override" `Quick
            test_metric_tolerance_override;
        ] );
      ( "trend",
        [
          Alcotest.test_case "clean trajectory" `Quick test_trend_clean;
          Alcotest.test_case "wall regression" `Quick
            test_trend_wall_regression;
          Alcotest.test_case "wall not gated across jobs" `Quick
            test_trend_wall_not_gated_across_jobs;
          Alcotest.test_case "counter regression" `Quick
            test_trend_counter_regression;
          Alcotest.test_case "payload regression" `Quick
            test_trend_payload_regression;
          Alcotest.test_case "hostile inputs" `Quick test_trend_hostile_inputs;
          Alcotest.test_case "single snapshot" `Quick
            test_trend_single_snapshot;
        ] );
    ]
