(* The self-profiling subsystem: deterministic hot-path counters (merged
   across pool domains), nested-region self/total attribution, the
   folded-stack escaping contract, and the BENCH_wallclock.json artifact
   read back through Poe_obs.Json. *)

module Prof = Poe_prof.Prof
module E = Poe_harness.Experiments
module Json = Poe_obs.Json

let counters_repr () =
  Prof.counters () |> Array.to_list
  |> List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
  |> String.concat "\n"

let counter_value name =
  Prof.counters () |> Array.to_list |> List.assoc name

(* ------------------------------------------------------------------ *)
(* Counter determinism across job counts                               *)

let grid_repr ~jobs =
  Prof.reset ();
  ignore
    (E.fig9_scalability ~scale:0.05 ~clients_per_hub:100 ~ns:[ 4; 7 ] ~jobs
       E.Standard_nofail);
  counters_repr ()

let test_counters_identical_across_jobs () =
  let seq = grid_repr ~jobs:1 in
  let par = grid_repr ~jobs:4 in
  Alcotest.(check string) "counter totals jobs=1 = jobs=4" seq par;
  (* And they actually counted the workload, not zeros = zeros. *)
  Prof.reset ();
  ignore
    (E.fig9_scalability ~scale:0.05 ~clients_per_hub:100 ~ns:[ 4 ] ~jobs:1
       E.Standard_nofail);
  Alcotest.(check bool) "events popped" true (counter_value "sim.events_popped" > 0);
  Alcotest.(check bool) "messages sent" true (counter_value "net.msgs_sent" > 0);
  Alcotest.(check bool)
    "txns executed" true
    (counter_value "exec.txns_executed" > 0);
  Alcotest.(check bool)
    "replies completed" true
    (counter_value "hub.replies_completed" > 0);
  Alcotest.(check bool)
    "queue high-water" true
    (counter_value "sim.queue_high_water" > 0);
  Prof.reset ()

(* The crypto counters are only driven by *materialized* crypto — cost-only
   simulation charges simulated time without computing MACs/digests — so
   exercise them directly through Hmac. *)
let test_crypto_counters () =
  Prof.reset ();
  let open Poe_crypto in
  let tag = Hmac.mac ~key:"counter-test" "msg" in
  Alcotest.(check bool) "mac verifies" true
    (Hmac.verify ~key:"counter-test" "msg" ~tag);
  Alcotest.(check int) "one mac per tag" 2
    (counter_value "hmac.macs_computed");
  (* Per tag: the two padded key blocks, one inner block holding the
     3-byte message, one outer block holding the inner digest. *)
  Alcotest.(check int) "sha256 blocks" 8
    (counter_value "sha256.blocks_compressed");
  Prof.reset ()

(* The rare protocol events are Prof counters too. A PoE primary crash
   forces client retransmissions, a view change and a new view while
   checkpoints keep stabilizing; a crashed SBFT backup denies the
   collector its all-n fast path, so slots commit via the slow path. *)
let counters_of_run (module P : Poe_runtime.Protocol_intf.S) ~scheme ~crash =
  let module Cluster = Poe_harness.Cluster in
  let module C = Cluster.Make (P) in
  let config =
    Poe_runtime.Config.make ~n:4 ~batch_size:5 ~materialize:true
      ~replica_scheme:scheme ~n_hubs:2 ~clients_per_hub:4
      ~request_timeout:0.4 ~view_timeout:0.2 ~checkpoint_period:8 ()
  in
  Prof.reset ();
  let c =
    C.build { (Cluster.default_params ~config) with warmup = 0.4; measure = 2.5 }
  in
  crash (C.crash_replica c);
  C.run c;
  let cs = Array.to_list (Prof.counters ()) in
  Prof.reset ();
  cs

let test_protocol_event_counters () =
  let check cs name =
    Alcotest.(check bool) (name ^ " counted") true (List.assoc name cs > 0)
  in
  let poe =
    counters_of_run
      (module Poe_core.Poe_protocol)
      ~scheme:Poe_runtime.Config.Auth_mac
      ~crash:(fun crash -> crash 0 ~at:0.8)
  in
  List.iter (check poe)
    [ "view.changes"; "view.new_views"; "recovery.checkpoints"; "hub.retransmits" ];
  let sbft =
    counters_of_run
      (module Poe_sbft.Sbft_protocol)
      ~scheme:Poe_runtime.Config.Auth_threshold
      ~crash:(fun crash -> crash 3 ~at:0.0)
  in
  check sbft "sbft.slow_paths"

(* ------------------------------------------------------------------ *)
(* Region nesting: self + children = total, exception safety           *)

(* Churn enough allocation that the inner regions measurably allocate. *)
let waste n =
  let acc = ref [] in
  for i = 1 to n do
    acc := i :: !acc
  done;
  ignore (Sys.opaque_identity !acc)

let find_region snap path =
  match List.find_opt (fun r -> r.Prof.path = path) snap.Prof.regions with
  | Some r -> r
  | None -> Alcotest.failf "region %s not recorded" path

let test_nested_accounting () =
  Prof.reset ();
  Prof.enable_regions ();
  Prof.with_region "outer" (fun () ->
      waste 1000;
      Prof.with_region "inner" (fun () -> waste 20000);
      Prof.with_region "inner" (fun () -> waste 20000));
  Prof.disable_regions ();
  let snap = Prof.snapshot () in
  let outer = find_region snap "outer" in
  let inner = find_region snap "outer;inner" in
  Alcotest.(check int) "outer calls" 1 outer.Prof.calls;
  Alcotest.(check int) "inner calls" 2 inner.Prof.calls;
  let feq what a b =
    if Float.abs (a -. b) > 1e-9 then
      Alcotest.failf "%s: %.12f <> %.12f" what a b
  in
  (* Totals decompose exactly: outer self = outer total - inner total
     (the only children), for both wall-clock and allocation. *)
  feq "wall attribution" outer.Prof.self_wall
    (outer.Prof.wall -. inner.Prof.wall);
  feq "alloc attribution" outer.Prof.self_alloc
    (outer.Prof.alloc -. inner.Prof.alloc);
  Alcotest.(check bool) "inner allocated" true (inner.Prof.alloc > 0.0);
  Alcotest.(check bool)
    "inner within outer" true
    (inner.Prof.wall <= outer.Prof.wall +. 1e-9);
  Prof.reset ()

let test_region_exception_safety () =
  Prof.reset ();
  Prof.enable_regions ();
  (try Prof.with_region "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  (* The stack unwound: the next region is a root, not a child of boom. *)
  Prof.with_region "after" (fun () -> ());
  Prof.disable_regions ();
  let snap = Prof.snapshot () in
  Alcotest.(check int) "raising region recorded" 1
    (find_region snap "boom").Prof.calls;
  Alcotest.(check int) "next region at root" 1
    (find_region snap "after").Prof.calls;
  Prof.reset ()

(* ------------------------------------------------------------------ *)
(* Folded-stack escaping                                               *)

let test_folded_escaping () =
  Alcotest.(check string) "escape_frame" "a:b_c" (Prof.escape_frame "a;b c");
  Prof.reset ();
  Prof.enable_regions ();
  Prof.with_region "evil; name\twith space" (fun () ->
      Prof.with_region "inner part" (fun () -> ()));
  Prof.disable_regions ();
  let folded = Prof.render_folded (Prof.snapshot ()) in
  Prof.reset ();
  let lines =
    String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per region" 2 (List.length lines);
  List.iter
    (fun line ->
      (* Exactly one space: the frame/weight separator. *)
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no weight separator in %S" line
      | Some i ->
          let frames = String.sub line 0 i in
          let weight = String.sub line (i + 1) (String.length line - i - 1) in
          Alcotest.(check bool)
            (Printf.sprintf "integer weight in %S" line)
            true
            (int_of_string_opt weight <> None);
          String.iter
            (fun c ->
              if c = ' ' || c = '\t' then
                Alcotest.failf "unescaped whitespace in frames %S" frames)
            frames)
    lines;
  Alcotest.(check bool) "semicolon joins frames, not names" true
    (List.exists
       (fun l ->
         String.length l > 0
         && String.split_on_char ';' l |> List.length = 2
         && String.length l >= 4
         && String.sub l 0 4 = "evil")
       lines)

(* ------------------------------------------------------------------ *)
(* BENCH_wallclock.json round trip                                     *)

let test_wallclock_roundtrip () =
  let figs =
    [
      {
        Prof.fig_name = "fig1";
        fig_wall_s = 1.5;
        fig_alloc_bytes = 123456.0;
        fig_minor = 3;
        fig_major = 1;
        fig_promoted = 10.0;
        fig_counters =
          [
            ("sim.events_pushed", 10);
            ("hub.replies_completed", 5);
            ("hmac.macs_computed", 20);
          ];
      };
    ]
  in
  let doc = Prof.wallclock_json ~jobs:1 ~quick:true ~scale:1.0 ~clients:100 figs in
  match Json.parse doc with
  | Error e -> Alcotest.failf "wallclock json does not parse: %s" e
  | Ok j -> (
      let stripped = Json.strip_unstable j in
      match Json.member "figures" stripped with
      | Some (Json.Arr [ fig ]) ->
          Alcotest.(check bool) "wall_s stripped" true
            (Json.member "wall_s" fig = None);
          Alcotest.(check bool) "gc stripped" true (Json.member "gc" fig = None);
          let counters = Option.get (Json.member "counters" fig) in
          Alcotest.(check (option int))
            "counter survives" (Some 10)
            (Option.bind (Json.member "sim.events_pushed" counters) Json.to_int);
          let budgets = Option.get (Json.member "budgets" fig) in
          Alcotest.(check (option (float 1e-9)))
            "budget = count / replies" (Some 4.0)
            (Option.bind (Json.member "hmac.macs_computed" budgets) Json.to_float);
          Alcotest.(check (option (float 1e-6)))
            "alloc survives stripping" (Some 123456.0)
            (Option.bind (Json.member "allocated_bytes" fig) Json.to_float)
      | _ -> Alcotest.fail "figures array missing or wrong arity")

(* The profile JSON itself must also parse. *)
let test_profile_json_parses () =
  Prof.reset ();
  Prof.enable_regions ();
  Prof.with_region "r" (fun () -> waste 100);
  Prof.disable_regions ();
  let snap = Prof.snapshot () in
  Prof.reset ();
  (match Json.parse (Prof.render_json snap) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "profile json does not parse: %s" e);
  match
    Json.parse (Prof.wallclock_json ~jobs:2 ~quick:false ~scale:0.5 ~clients:0 [])
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "empty wallclock json does not parse: %s" e

let () =
  Alcotest.run "prof"
    [
      ( "counters",
        [
          Alcotest.test_case "jobs=1 = jobs=4 and nonzero" `Slow
            test_counters_identical_across_jobs;
          Alcotest.test_case "crypto counters" `Quick test_crypto_counters;
          Alcotest.test_case "protocol events" `Quick
            test_protocol_event_counters;
        ] );
      ( "regions",
        [
          Alcotest.test_case "nested self/total adds up" `Quick
            test_nested_accounting;
          Alcotest.test_case "exception-safe close" `Quick
            test_region_exception_safety;
        ] );
      ( "render",
        [
          Alcotest.test_case "folded escapes ; and whitespace" `Quick
            test_folded_escaping;
          Alcotest.test_case "wallclock round-trips stripped" `Quick
            test_wallclock_roundtrip;
          Alcotest.test_case "profile json parses" `Quick
            test_profile_json_parses;
        ] );
    ]
