(* Trace-analysis tests: slot lifecycle reconstruction from synthetic
   event streams, ring-wraparound truncation handling, rollback marking,
   causal critical-path extraction, per-phase breakdowns for all five
   protocols from traced mini-runs, and byte-identical determinism of
   rendered reports. *)

module Trace = Poe_obs.Trace
module An = Poe_analysis
module SL = An.Slot_life
module At = An.Attribution
module E = Poe_harness.Experiments
module Cluster = Poe_harness.Cluster
module Config = Poe_runtime.Config

let with_sink ?capacity f =
  let tr = Trace.create ?capacity () in
  Trace.set tr;
  Fun.protect ~finally:Trace.clear (fun () -> f tr)

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Lifecycle reconstruction from a synthetic committed slot             *)

let test_lifecycle_reconstruction () =
  let events =
    with_sink (fun tr ->
        Trace.instant ~ts:0.9 ~node:4 ~cat:"client"
          ~args:[ ("hub", Trace.I 0); ("client", Trace.I 1); ("rid", Trace.I 0) ]
          "submit";
        Trace.phase ~ts:1.0 ~node:0 ~cat:"poe" ~view:0 ~seqno:7 "propose";
        Trace.phase ~ts:1.2 ~node:0 ~cat:"poe" ~view:0 ~seqno:7 "support";
        Trace.phase ~ts:1.5 ~node:0 ~cat:"poe" ~view:0 ~seqno:7 "execute";
        Trace.instant ~ts:1.6 ~node:0 ~cat:"exec" ~view:0 ~seqno:7
          ~args:[ ("digest", Trace.S "d7"); ("result", Trace.S "r7") ]
          "executed";
        ignore (Trace.slot_done ~ts:1.6 ~node:0 ~view:0 ~seqno:7);
        Trace.instant ~ts:1.7 ~node:4 ~cat:"client" ~view:0 ~seqno:7
          ~args:
            [
              ("hub", Trace.I 0); ("client", Trace.I 1); ("rid", Trace.I 0);
              ("latency", Trace.F 0.8);
            ]
          "reply";
        Trace.events tr)
  in
  let r = SL.reconstruct events in
  (match r.SL.slots with
  | [ s ] ->
      Alcotest.(check int) "node" 0 s.SL.node;
      Alcotest.(check int) "seqno" 7 s.SL.seqno;
      Alcotest.(check string) "protocol" "poe" s.SL.protocol;
      Alcotest.(check string) "terminal" "committed"
        (SL.terminal_name s.SL.terminal);
      Alcotest.(check bool) "not truncated" false s.SL.truncated;
      Alcotest.(check (list string))
        "phases in order"
        [ "propose"; "support"; "execute" ]
        (List.map (fun (p : SL.phase_span) -> p.SL.phase) s.SL.phases);
      Alcotest.(check int) "one execution" 1 (List.length s.SL.executions);
      let _, digest, result = List.hd s.SL.executions in
      Alcotest.(check string) "batch digest" "d7" digest;
      Alcotest.(check string) "result digest" "r7" result
  | slots -> Alcotest.failf "expected 1 slot, got %d" (List.length slots));
  (match r.SL.lifecycles with
  | [ l ] ->
      Alcotest.(check int) "lifecycle seqno" 7 l.SL.l_seqno;
      Alcotest.(check (option (float 1e-9))) "submit" (Some 0.9) l.SL.submit_ts;
      Alcotest.(check (option (float 1e-9))) "reply" (Some 1.7) l.SL.reply_ts
  | ls -> Alcotest.failf "expected 1 lifecycle, got %d" (List.length ls));
  Alcotest.(check (list (float 1e-9)))
    "e2e latency from submit->reply" [ 0.8 ] r.SL.e2e_latencies;
  match At.of_result r with
  | [ b ] ->
      Alcotest.(check string) "breakdown protocol" "poe" b.At.protocol;
      Alcotest.(check int) "committed" 1 b.At.committed;
      Alcotest.(check int) "slot samples" 1 b.At.slot_count;
      Alcotest.(check (float 1e-9)) "slot p50 = close - open" 0.6 b.At.slot_p50;
      let support =
        List.find (fun (p : At.phase_stats) -> p.At.phase = "support") b.At.phases
      in
      Alcotest.(check (float 1e-9)) "support p50" 0.3 support.At.p50
  | bs -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bs)

(* ------------------------------------------------------------------ *)
(* Ring wraparound: truncated slots are flagged, never mis-attributed   *)

let test_wraparound_truncation () =
  let events =
    with_sink ~capacity:8 (fun tr ->
        (* slot 0 opens (slot + propose spans), then the ring wraps *)
        Trace.phase ~ts:0.1 ~node:0 ~cat:"poe" ~view:0 ~seqno:0 "propose";
        for i = 1 to 10 do
          Trace.instant ~ts:(0.1 +. (0.01 *. float_of_int i)) ~node:1
            ~cat:"filler" "tick"
        done;
        Trace.phase ~ts:0.5 ~node:0 ~cat:"poe" ~view:0 ~seqno:0 "execute";
        ignore (Trace.slot_done ~ts:0.6 ~node:0 ~view:0 ~seqno:0);
        Alcotest.(check bool) "ring actually wrapped" true (Trace.dropped tr > 0);
        Trace.events tr)
  in
  let r = SL.reconstruct events in
  let s =
    List.find (fun (s : SL.slot) -> s.SL.seqno = 0 && s.SL.node = 0) r.SL.slots
  in
  Alcotest.(check bool) "flagged truncated" true s.SL.truncated;
  Alcotest.(check string) "terminal" "truncated" (SL.terminal_name s.SL.terminal);
  let b =
    List.find (fun (b : At.breakdown) -> b.At.protocol = "poe") (At.of_result r)
  in
  Alcotest.(check int) "counted as truncated" 1 b.At.truncated;
  (* No duration sample may come from the truncated history. *)
  Alcotest.(check int) "no slot-duration samples" 0 b.At.slot_count;
  List.iter
    (fun (p : At.phase_stats) ->
      Alcotest.(check int) ("no samples for phase " ^ p.At.phase) 0 p.At.count)
    b.At.phases

(* ------------------------------------------------------------------ *)
(* Rollbacks: later executed slots are marked, re-execution recommits   *)

let test_rollback_marking () =
  let exec ~ts ~seqno digest =
    Trace.instant ~ts ~node:0 ~cat:"exec" ~view:0 ~seqno
      ~args:[ ("digest", Trace.S digest); ("result", Trace.S digest) ]
      "executed"
  in
  let events =
    with_sink (fun tr ->
        exec ~ts:1.0 ~seqno:3 "d3";
        exec ~ts:1.1 ~seqno:4 "d4";
        exec ~ts:1.2 ~seqno:5 "d5";
        Trace.instant ~ts:1.3 ~node:0 ~cat:"exec" ~seqno:3
          ~args:[ ("reverted", Trace.I 2) ]
          "rollback";
        (* seqno 4 is re-proposed and re-executed; 5 stays rolled back *)
        exec ~ts:1.4 ~seqno:4 "d4'";
        Trace.events tr)
  in
  let r = SL.reconstruct events in
  let slot n = List.find (fun (s : SL.slot) -> s.SL.seqno = n) r.SL.slots in
  Alcotest.(check string) "seqno 3 survives the rollback" "committed"
    (SL.terminal_name (slot 3).SL.terminal);
  Alcotest.(check string) "seqno 5 rolled back" "rolled_back"
    (SL.terminal_name (slot 5).SL.terminal);
  Alcotest.(check string) "seqno 4 re-executed, committed again" "committed"
    (SL.terminal_name (slot 4).SL.terminal);
  Alcotest.(check int) "seqno 4 counted one rollback" 1 (slot 4).SL.rollbacks;
  Alcotest.(check int) "seqno 4 has both executions" 2
    (List.length (slot 4).SL.executions)

(* ------------------------------------------------------------------ *)
(* Causal graph: the critical path follows send/deliver mids backwards  *)

let test_causal_path () =
  let events =
    with_sink (fun tr ->
        Trace.instant ~ts:1.0 ~node:0 ~cat:"net"
          ~args:[ ("mid", Trace.I 1); ("dst", Trace.I 1); ("bytes", Trace.I 100) ]
          "send";
        Trace.instant ~ts:1.05 ~node:1 ~cat:"net"
          ~args:[ ("mid", Trace.I 1); ("src", Trace.I 0); ("bytes", Trace.I 100) ]
          "deliver";
        Trace.instant ~ts:1.1 ~node:1 ~cat:"net"
          ~args:[ ("mid", Trace.I 2); ("dst", Trace.I 2); ("bytes", Trace.I 50) ]
          "send";
        Trace.instant ~ts:1.2 ~node:2 ~cat:"net"
          ~args:[ ("mid", Trace.I 2); ("src", Trace.I 1); ("bytes", Trace.I 50) ]
          "deliver";
        Trace.instant ~ts:1.25 ~node:2 ~cat:"exec" ~view:0 ~seqno:9
          ~args:[ ("digest", Trace.S "d"); ("result", Trace.S "d") ]
          "executed";
        Trace.events tr)
  in
  let graph = An.Causal.build events in
  match An.Causal.critical_path graph ~node:2 ~seqno:9 with
  | [
   An.Causal.Hop { mid = m1; src = s1; dst = d1; _ };
   An.Causal.Hop { mid = m2; dst = d2; _ };
   An.Causal.Local { label; _ };
  ] ->
      Alcotest.(check int) "first hop mid" 1 m1;
      Alcotest.(check int) "first hop src" 0 s1;
      Alcotest.(check int) "first hop dst" 1 d1;
      Alcotest.(check int) "second hop mid" 2 m2;
      Alcotest.(check int) "second hop dst" 2 d2;
      Alcotest.(check string) "ends at the execution" "exec.executed" label
  | path -> Alcotest.failf "unexpected path shape (%d steps)" (List.length path)

(* ------------------------------------------------------------------ *)
(* All five protocols: traced mini-runs yield the expected phases       *)

let run_traced (p : E.protocol) =
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
    Config.make ~n:4 ~batch_size:50 ~payload:Config.Standard
      ~replica_scheme:scheme ~out_of_order:true ~clients_per_hub:50
      ~request_timeout:0.5 ~seed:1 ()
  in
  let module C = Cluster.Make (P) in
  let params =
    { (Cluster.default_params ~config) with warmup = 0.2; measure = 0.3 }
  in
  let out = ref [] in
  E.instrumented
    ~on_trace:(fun tr -> out := At.of_result (SL.reconstruct (Trace.events tr)))
    (fun () ->
      let c = C.build params in
      C.run c);
  !out

let expected_phases = function
  | E.Poe -> [ "propose"; "support"; "certify"; "execute" ]
  | E.Pbft -> [ "propose"; "prepare"; "commit"; "execute" ]
  | E.Zyzzyva -> [ "propose"; "execute" ]
  | E.Sbft -> [ "propose"; "share"; "commit"; "execute" ]
  | E.Hotstuff -> [ "propose"; "vote"; "commit"; "execute" ]

let protocol_breakdown_test (p : E.protocol) =
  let name = E.protocol_name p in
  let test () =
    let breakdowns = run_traced p in
    let b =
      match
        List.find_opt (fun (b : At.breakdown) -> b.At.protocol = name) breakdowns
      with
      | Some b -> b
      | None -> Alcotest.failf "no breakdown for protocol %s" name
    in
    Alcotest.(check bool) "slots committed" true (b.At.committed > 0);
    Alcotest.(check (list string))
      "phase names in pipeline order" (expected_phases p)
      (List.map (fun (ps : At.phase_stats) -> ps.At.phase) b.At.phases);
    let execute =
      List.find (fun (ps : At.phase_stats) -> ps.At.phase = "execute") b.At.phases
    in
    Alcotest.(check bool) "execute phase sampled" true (execute.At.count > 0);
    Alcotest.(check bool) "e2e latencies present" true (b.At.e2e_count > 0)
  in
  Alcotest.test_case (name ^ " phase breakdown") `Slow test

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, byte-identical reports                       *)

let test_report_determinism () =
  let render () =
    match run_traced E.Poe with
    | [] -> Alcotest.fail "on_trace never ran"
    | breakdowns ->
        ( An.Report.breakdowns_to_string breakdowns,
          An.Report.breakdowns_json breakdowns )
  in
  let text_a, json_a = render () in
  let text_b, json_b = render () in
  Alcotest.(check string) "text report byte-identical" text_a text_b;
  Alcotest.(check string) "json report byte-identical" json_a json_b;
  Alcotest.(check bool) "text mentions every phase" true
    (List.for_all (fun p -> contains text_a ("phase " ^ p))
       [ "propose"; "support"; "certify"; "execute" ]);
  Alcotest.(check bool) "json has schema root" true
    (contains json_a "{\"protocols\":[")

let () =
  Alcotest.run "analysis"
    [
      ( "slot-life",
        [
          Alcotest.test_case "committed slot reconstruction" `Quick
            test_lifecycle_reconstruction;
          Alcotest.test_case "ring wraparound flags truncation" `Quick
            test_wraparound_truncation;
          Alcotest.test_case "rollback marking" `Quick test_rollback_marking;
        ] );
      ( "causal",
        [ Alcotest.test_case "critical path over mids" `Quick test_causal_path ]
      );
      ( "protocols",
        List.map protocol_breakdown_test E.all_protocols );
      ( "determinism",
        [
          Alcotest.test_case "same-seed byte-identical reports" `Slow
            test_report_determinism;
        ] );
    ]
