(* Tests for the observability layer (lib/obs): histogram quantiles
   against a brute-force oracle, trace ring-buffer wraparound, the
   emitters' allocation-free off path, Chrome and JSONL export
   well-formedness, the Json module (byte-exact string round trips,
   both unstable strips, integer range, file errors), and an end-to-end
   PoE run asserting the per-slot phase span structure and
   byte-identical exports across same-seed runs. *)

module Trace = Poe_obs.Trace
module Metrics = Poe_obs.Metrics
module Json = Poe_obs.Json
module R = Poe_runtime
module Config = R.Config
module Cluster = Poe_harness.Cluster

(* ------------------------------------------------------------------ *)
(* Histogram quantiles vs brute force                                  *)

(* Deterministic generator: tests must not depend on global RNG state. *)
let lcg seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 25214903917) + 11) land ((1 lsl 48) - 1);
    float_of_int ((!state lsr 16) land 0xFFFFFF) /. float_of_int 0x1000000

let test_quantile_oracle () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  let next = lcg 42 in
  let samples =
    Array.init 2000 (fun _ ->
        (* Spread over ~7 decades, the realistic latency range. *)
        1e-6 *. (10.0 ** (next () *. 7.0)))
  in
  Array.iter (Metrics.observe h) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  List.iter
    (fun q ->
      let idx = max 0 (int_of_float (ceil (q *. float_of_int n)) - 1) in
      let oracle = sorted.(idx) in
      let est = Metrics.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f upper bound (oracle %g, est %g)" q oracle est)
        true
        (est >= oracle *. (1.0 -. 1e-9));
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within one bucket (oracle %g, est %g)" q oracle
           est)
        true
        (est <= (oracle *. Metrics.bucket_ratio *. (1.0 +. 1e-9))))
    [ 0.5; 0.9; 0.95; 0.99 ];
  Alcotest.(check int) "count" n (Metrics.hist_count h);
  let sum = Array.fold_left ( +. ) 0.0 samples in
  Alcotest.(check bool) "sum" true
    (abs_float (Metrics.hist_sum h -. sum) < 1e-9 *. sum);
  Alcotest.(check (float 1e-12)) "max is exact" sorted.(n - 1) (Metrics.hist_max h);
  Alcotest.(check (float 1e-12)) "p100 clamps to max" sorted.(n - 1)
    (Metrics.quantile h 1.0)

let test_quantile_empty () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "empty" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Metrics.quantile h 0.99);
  Alcotest.(check int) "empty count" 0 (Metrics.hist_count h)

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:8 () in
  Trace.set tr;
  for i = 0 to 19 do
    Trace.instant ~ts:(float_of_int i) ~node:0 ~cat:"test" "tick"
  done;
  Trace.clear ();
  let evs = Trace.events tr in
  Alcotest.(check int) "retains capacity" 8 (List.length evs);
  Alcotest.(check int) "dropped the rest" 12 (Trace.dropped tr);
  Alcotest.(check (float 0.0)) "oldest retained is #12" 12.0
    (List.hd evs).Trace.ts;
  Alcotest.(check (float 0.0)) "newest retained is #19" 19.0
    (List.nth evs 7).Trace.ts

let test_disabled_emitters_are_noops () =
  Trace.clear ();
  Metrics.clear_current ();
  Alcotest.(check bool) "trace disabled" false (Trace.enabled ());
  Alcotest.(check bool) "metrics disabled" false (Metrics.enabled ());
  (* None of these should raise or allocate a sink. *)
  Trace.instant ~ts:0.0 ~node:0 ~cat:"x" "e";
  Trace.phase ~ts:0.0 ~node:0 ~cat:"x" ~view:0 ~seqno:0 "p";
  Alcotest.(check (option (float 0.0))) "slot_done none" None
    (Trace.slot_done ~ts:1.0 ~node:0 ~view:0 ~seqno:0);
  Metrics.hobs "h" 1.0

(* With no sink and no registry installed every emitter is one load and
   branch, so constant-argument calls allocate nothing. The slack is the
   one test_simnet's engine test allows for the box [Gc.minor_words]
   returns. *)
let test_off_path_allocates_nothing () =
  Trace.clear ();
  Metrics.clear_current ();
  let n = 100_000 in
  let calls () =
    for _ = 1 to n do
      Trace.instant ~ts:0.5 ~node:1 ~cat:"x" "e";
      Trace.phase ~ts:0.5 ~node:1 ~cat:"x" ~view:0 ~seqno:3 "p";
      ignore (Trace.slot_done ~ts:0.5 ~node:1 ~view:0 ~seqno:3);
      Metrics.hobs "h" 0.25
    done
  in
  calls ();
  let before = Gc.minor_words () in
  calls ();
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words > 0.001 then
    Alcotest.failf "%.4f minor words per round of four calls, floor is 0" words

let parse_ok s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "does not parse: %s" e

let obj_str name j = Option.bind (Json.member name j) Json.to_string

(* ------------------------------------------------------------------ *)
(* Chrome export well-formedness on a synthetic trace                  *)

let test_chrome_export_wellformed () =
  let tr = Trace.create () in
  Trace.set tr;
  List.iter
    (fun (ts, phase) ->
      Trace.phase ~ts ~node:0 ~cat:"poe" ~view:0 ~seqno:7 phase)
    [ (0.001, "propose"); (0.002, "support"); (0.003, "certify") ];
  ignore (Trace.slot_done ~ts:0.004 ~node:0 ~view:0 ~seqno:7);
  Trace.instant ~ts:0.005 ~node:1 ~cat:"poe" ~view:1 "view_change";
  Trace.complete ~tid:3 ~ts:0.001 ~dur:0.0005 ~node:1 ~cat:"server"
    ~args:[ ("lane", Trace.I 0); ("note", Trace.S "a\"b\\c\n") ]
    "worker";
  Trace.clear ();
  let buf = Buffer.create 1024 in
  Trace.export_chrome tr buf;
  let j = parse_ok (Buffer.contents buf) in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let phs = List.filter_map (obj_str "ph") events in
  let count code = List.length (List.filter (String.equal code) phs) in
  Alcotest.(check int) "metadata per node" 2 (count "M");
  (* slot + 3 phases open; all of them close. *)
  Alcotest.(check int) "async begins" 4 (count "b");
  Alcotest.(check int) "async ends" 4 (count "e");
  Alcotest.(check int) "instants" 1 (count "i");
  Alcotest.(check int) "complete spans" 1 (count "X");
  List.iter
    (fun ev ->
      match obj_str "ph" ev with
      | Some ("b" | "e") ->
          (match Json.member "id2" ev with
          | Some (Json.Obj [ ("local", Json.Str _) ]) -> ()
          | _ -> Alcotest.fail "async event without local id2")
      | _ -> ())
    events

let test_jsonl_export_parses () =
  let tr = Trace.create () in
  Trace.set tr;
  Trace.instant ~ts:0.25 ~node:2 ~cat:"net" ~args:[ ("sz", Trace.I 9) ] "send";
  Trace.phase ~ts:0.5 ~node:2 ~cat:"pbft" ~view:1 ~seqno:3 "prepare";
  Trace.clear ();
  let buf = Buffer.create 256 in
  Trace.export_jsonl tr buf;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" 3 (List.length lines);
  List.iter
    (fun line ->
      match parse_ok line with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "jsonl line is not an object")
    lines

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let hostile = "\x00\x1f\x7f\x80\xffplain \"quoted\" back\\slash\nnewline\ttab"

let check_printable what s =
  String.iter
    (fun c ->
      if (Char.code c < 0x20 && c <> '\n') || Char.code c >= 0x7f then
        Alcotest.failf "raw byte 0x%02x leaked into %s" (Char.code c) what)
    s

let test_hostile_json_roundtrip () =
  (* Every byte value survives escape -> parse, as a value and as a key,
     and the escaped form is printable ASCII. *)
  let all_bytes = String.init 256 Char.chr in
  let quoted = Json.quote all_bytes in
  check_printable "the escaped string" quoted;
  (match parse_ok quoted with
  | Json.Str s -> Alcotest.(check string) "256 bytes byte-exact" all_bytes s
  | _ -> Alcotest.fail "not a string");
  String.iter
    (fun c ->
      let s = String.make 1 c in
      match parse_ok (Printf.sprintf "{%s:%s}" (Json.quote s) (Json.quote s)) with
      | Json.Obj [ (k, Json.Str v) ] when k = s && v = s -> ()
      | _ -> Alcotest.failf "byte 0x%02x does not round-trip" (Char.code c))
    all_bytes;
  (* The same holds through a trace export and the analysis reader. *)
  let tr = Trace.create () in
  Trace.set tr;
  Trace.instant ~ts:0.123456789 ~node:0 ~cat:"exec" ~view:2 ~seqno:11
    ~args:
      [
        ("digest", Trace.S hostile); ("result", Trace.S "ok");
        ("txns", Trace.I 3); ("lat", Trace.F 0.25);
      ]
    "executed";
  Trace.clear ();
  let buf = Buffer.create 256 in
  Trace.export_jsonl tr buf;
  let line = Buffer.contents buf in
  let module R = Poe_analysis.Trace_reader in
  (match R.events_of_jsonl line with
  | Error e -> Alcotest.failf "reader rejected exporter output: %s" e
  | Ok [ ev ] ->
      Alcotest.(check string) "hostile digest byte-exact" hostile
        (Option.get (R.str_arg "digest" ev));
      Alcotest.(check int) "int arg" 3 (Option.get (R.int_arg "txns" ev));
      Alcotest.(check (float 1e-9)) "float arg" 0.25
        (Option.get (R.float_arg "lat" ev));
      Alcotest.(check (float 1e-9)) "timestamp" 0.123456789 ev.Trace.ts;
      Alcotest.(check int) "seqno" 11 ev.Trace.seqno;
      Alcotest.(check int) "view" 2 ev.Trace.view
  | Ok evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  check_printable "JSONL" line

let test_strip_unstable_value () =
  let doc =
    parse_ok
      {|{"a":{"wall":{"unstable":true,"value":1.5},"n":1},
         "xs":[{"t":{"unstable":true,"value":2},"k":2},3],
         "gc":{"unstable":true,"minor":4},
         "keep":{"unstable":false,"value":5}}|}
  in
  let expected =
    parse_ok
      {|{"a":{"n":1},"xs":[{"k":2},3],"keep":{"unstable":false,"value":5}}|}
  in
  Alcotest.(check bool) "nested members and array elements stripped, false kept"
    true
    (Json.strip_unstable doc = expected);
  Alcotest.(check (option (float 0.0))) "unstable value read" (Some 1.5)
    (Json.unstable_value (parse_ok (Json.unstable 1.5)));
  Alcotest.(check (option (float 0.0))) "plain number read" (Some 2.0)
    (Json.unstable_value (Json.Int 2))

let test_strip_unstable_edges () =
  (* An unstable member can also lead an object (manifest-style). *)
  Alcotest.(check string) "leading member stripped" "{\"x\":1}"
    (Json.strip_unstable_text
       "{\"wall\":{\"unstable\":true,\"value\":9.5},\"x\":1}");
  Alcotest.(check string) "lone member leaves empty object" "{}"
    (Json.strip_unstable_text "{\"wall\":{\"unstable\":true,\"value\":9.5}}");
  (* Strings containing the marker text are not mangled. *)
  let s = "{\"k\":\"a {\\\"unstable\\\":true} b\"}" in
  Alcotest.(check string) "marker inside string survives" s
    (Json.strip_unstable_text s);
  (* Stable lines pass through untouched. *)
  let stable = "{\"hb\":0,\"ts\":0.100000000,\"deltas\":{\"net.msgs_sent\":210}}\n" in
  Alcotest.(check string) "stable line unchanged" stable
    (Json.strip_unstable_text stable)

let test_to_int_range () =
  let two62 = Float.ldexp 1.0 62 in
  List.iter
    (fun (what, f, expected) ->
      Alcotest.(check (option int)) what expected (Json.to_int (Json.Float f)))
    [
      ("1e300", 1e300, None);
      ("2^62", two62, None);
      ("-2^62 - 2^11", -.two62 -. Float.ldexp 1.0 11, None);
      ("-2^62", -.two62, Some min_int);
      ("nan", Float.nan, None);
      ("3.0", 3.0, Some 3);
      ("3.5", 3.5, None);
    ]

let test_file_errors () =
  let dir = "json_file_errors" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let is_error = function Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "read_file on a directory" true
    (is_error (Json.read_file dir));
  Alcotest.(check bool) "read_file on a missing file" true
    (is_error (Json.read_file (Filename.concat dir "missing")));
  Alcotest.(check bool) "write_file into a missing directory" true
    (is_error (Json.write_file (Filename.concat dir "no/such/file") "x"));
  Alcotest.(check bool) "trace reader on a directory" true
    (is_error (Poe_analysis.Trace_reader.load_file dir));
  Alcotest.(check bool) "diff traces on directories" true
    (is_error (Poe_diff.Trace_diff.diff_files dir dir));
  let path = Filename.concat dir "f.json" in
  Alcotest.(check bool) "write_file" true (Json.write_file path "{}\n" = Ok ());
  Alcotest.(check (result string string)) "read back" (Ok "{}\n")
    (Json.read_file path)

(* ------------------------------------------------------------------ *)
(* End-to-end: a PoE cluster emits nested slot/phase spans             *)

let small_config ?(seed = 7) () =
  Config.make ~n:4 ~batch_size:5 ~clients_per_hub:10 ~n_hubs:1 ~seed ()

let run_traced ?seed () =
  let tr = Trace.create () in
  let reg = Metrics.create () in
  Trace.set tr;
  Metrics.set_current reg;
  let module C = Cluster.Make (Poe_core.Poe_protocol) in
  let c =
    C.build
      {
        (Cluster.default_params ~config:(small_config ?seed ())) with
        warmup = 0.1;
        measure = 0.4;
      }
  in
  C.run c;
  Trace.clear ();
  Metrics.clear_current ();
  (tr, reg)

let test_poe_phase_nesting () =
  let tr, reg = run_traced () in
  let evs = Trace.events tr in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr);
  (* For every closed slot on node 0, phases must begin in protocol
     order and every begin must have a matching end. *)
  let slot_events seqno =
    List.filter
      (fun e -> e.Trace.node = 0 && e.Trace.seqno = seqno && e.Trace.tid = 0)
      evs
  in
  let closed_slots =
    List.filter_map
      (fun e ->
        if
          e.Trace.node = 0 && e.Trace.name = "slot"
          && e.Trace.ph = Trace.Span_end
        then Some e.Trace.seqno
        else None)
      evs
  in
  Alcotest.(check bool) "some slots closed" true (List.length closed_slots > 3);
  List.iter
    (fun seqno ->
      let begins =
        List.filter_map
          (fun e ->
            match e.Trace.ph with
            | Trace.Span_begin when e.Trace.name <> "slot" ->
                Some e.Trace.name
            | _ -> None)
          (slot_events seqno)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "phase order, slot %d" seqno)
        [ "propose"; "support"; "certify"; "execute" ]
        begins;
      let count ph name =
        List.length
          (List.filter
             (fun e -> e.Trace.ph = ph && e.Trace.name = name)
             (slot_events seqno))
      in
      List.iter
        (fun name ->
          Alcotest.(check int)
            (Printf.sprintf "balanced %s spans, slot %d" name seqno)
            (count Trace.Span_begin name) (count Trace.Span_end name))
        [ "slot"; "propose"; "support"; "certify"; "execute" ])
    closed_slots;
  (* Execution latency flowed into the metrics registry too. *)
  let h = Metrics.histogram reg "exec.slot_latency" in
  Alcotest.(check bool) "slot latencies recorded" true
    (Metrics.hist_count h > 3);
  Alcotest.(check bool) "lane samples recorded" true
    (Metrics.hist_count (Metrics.histogram reg "lane.worker.queue_depth") > 0)

let test_deterministic_exports () =
  let export (tr, reg) =
    let buf = Buffer.create 4096 in
    Trace.export_jsonl tr buf;
    let cbuf = Buffer.create 4096 in
    Trace.export_chrome tr cbuf;
    let rows =
      Format.asprintf "%a" Metrics.pp_summary reg
    in
    (Buffer.contents buf, Buffer.contents cbuf, rows)
  in
  let a = export (run_traced ~seed:11 ()) in
  let b = export (run_traced ~seed:11 ()) in
  let c = export (run_traced ~seed:12 ()) in
  let j1, c1, m1 = a and j2, c2, m2 = b and j3, _, _ = c in
  Alcotest.(check bool) "traces are non-trivial" true
    (String.length j1 > 1000);
  Alcotest.(check string) "jsonl byte-identical across same-seed runs" j1 j2;
  Alcotest.(check string) "chrome byte-identical across same-seed runs" c1 c2;
  Alcotest.(check string) "metrics byte-identical across same-seed runs" m1 m2;
  Alcotest.(check bool) "different seed, different trace" true (j1 <> j3)

(* [--metrics] output: every Prof counter over the run, then the
   histogram table. *)
let capture_stdout f =
  let path = Filename.temp_file "instrumented" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Format.print_flush ();
  Unix.dup2 fd Unix.stdout;
  Fun.protect f ~finally:(fun () ->
      Format.print_flush ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd);
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let test_instrumented_prints_counters () =
  let out =
    capture_stdout (fun () ->
        Poe_harness.Experiments.instrumented ~metrics:true (fun () ->
            let module C = Cluster.Make (Poe_core.Poe_protocol) in
            let c =
              C.build
                {
                  (Cluster.default_params ~config:(small_config ())) with
                  warmup = 0.1;
                  measure = 0.2;
                }
            in
            C.run c))
  in
  let lines = String.split_on_char '\n' out in
  let printed name =
    List.exists
      (fun l ->
        match String.split_on_char ' ' (String.trim l) with
        | n :: _ -> String.equal n name
        | [] -> false)
      lines
  in
  Alcotest.(check bool) "counter section" true (List.mem "counters:" lines);
  Array.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " printed") true (printed name))
    Poe_prof.Prof.counter_defs;
  Alcotest.(check bool) "histograms follow" true (printed "histograms:");
  Alcotest.(check bool) "lane histogram" true
    (printed "lane.worker.utilization")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "quantile vs oracle" `Quick test_quantile_oracle;
          Alcotest.test_case "empty histogram" `Quick test_quantile_empty;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "disabled no-ops" `Quick
            test_disabled_emitters_are_noops;
          Alcotest.test_case "observability off allocates nothing" `Quick
            test_off_path_allocates_nothing;
          Alcotest.test_case "chrome export well-formed" `Quick
            test_chrome_export_wellformed;
          Alcotest.test_case "jsonl export parses" `Quick
            test_jsonl_export_parses;
        ] );
      ( "json",
        [
          Alcotest.test_case "hostile-string round trip" `Quick
            test_hostile_json_roundtrip;
          Alcotest.test_case "value-level strip_unstable" `Quick
            test_strip_unstable_value;
          Alcotest.test_case "strip_unstable edge cases" `Quick
            test_strip_unstable_edges;
          Alcotest.test_case "to_int range" `Quick test_to_int_range;
          Alcotest.test_case "file errors are results" `Quick test_file_errors;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "poe phase nesting" `Quick test_poe_phase_nesting;
          Alcotest.test_case "deterministic exports" `Quick
            test_deterministic_exports;
          Alcotest.test_case "instrumented prints every counter" `Quick
            test_instrumented_prints_counters;
        ] );
    ]
