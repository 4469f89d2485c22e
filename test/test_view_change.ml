(* Unit tests for the shared view-change skeleton (View_change), driven
   through a stub certificate: a summary is just the view it leaves and a
   validity bit, and the adopt rule only records what it was given before
   installing the view. Replicas have no network handlers, so everything
   they broadcast is dropped and each test controls every message a
   replica sees. *)

module R = Poe_runtime
module Config = R.Config
module Cost = R.Cost
module Ctx = R.Replica_ctx
module V = R.View_change
module Stats = R.Stats
module Server = R.Server
module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Latency = Poe_simnet.Latency
module Rng = Poe_simnet.Rng

type cert = { leaves : int; ok : bool }

type replica = {
  vc : cert V.t;
  mutable halts : int;
  mutable adopted : (int * int list) list;
      (* (new view, senders of the certificates), newest first *)
}

module Vc = V.Make (struct
  type nonrec replica = replica
  type nonrec cert = cert

  let state r = r.vc
  let from_view c = c.leaves
  let size _ = 0
  let valid c = c.ok
  let summarize _ ~from_view = { leaves = from_view; ok = true }
  let halt r ~from_view:_ = r.halts <- r.halts + 1

  let adopt r ~new_view vcs =
    r.adopted <- (new_view, List.map fst vcs) :: r.adopted;
    V.install r.vc ~new_view vcs
end)

let view_timeout = 0.2

let make_cluster ~n =
  let config =
    Config.make ~n ~batch_size:2 ~view_timeout ~n_hubs:1 ~clients_per_hub:1 ()
  in
  let engine = Engine.create ~seed:3 () in
  let net =
    Network.create ~engine ~n_nodes:(n + 1) ~latency:(Latency.Constant 0.001) ()
  in
  let stats = Stats.create ~warmup:0.0 ~measure:100.0 in
  let replicas =
    Array.init n (fun id ->
        let ctx =
          Ctx.create ~id ~config ~cost:Cost.default ~engine ~net
            ~server:(Server.create ~engine ()) ~stats ~rng:(Rng.create id) ()
        in
        { vc = V.create ctx ~name:"stub"; halts = 0; adopted = [] })
  in
  (engine, replicas)

let good v = { leaves = v; ok = true }
let request r ~src c = Vc.on_message r ~src (Vc.Vc_request { payload = c })

let propose r ~src ~new_view vcs =
  Vc.on_message r ~src (Vc.Nv_propose { new_view; vcs })

let status =
  Alcotest.testable
    (fun ppf -> function
      | V.Active -> Format.pp_print_string ppf "Active"
      | V.In_view_change v -> Format.fprintf ppf "In_view_change %d" v)
    ( = )

let test_join_needs_f_plus_one () =
  (* n = 7, f = 2: two requests for the current view could all come from
     faulty replicas; a third proves a non-faulty one saw a failure. *)
  let _, rs = make_cluster ~n:7 in
  let r = rs.(1) in
  request r ~src:2 (good 0);
  request r ~src:3 (good 0);
  request r ~src:3 (good 0);
  Alcotest.check status "f requests: still active" V.Active r.vc.status;
  Alcotest.(check int) "not halted" 0 r.halts;
  request r ~src:4 (good 0);
  Alcotest.check status "f+1 requests: joined" (V.In_view_change 0)
    r.vc.status;
  Alcotest.(check int) "halted once" 1 r.halts;
  (* Requests for a future view do not count towards the join rule. *)
  let r = rs.(2) in
  List.iter (fun src -> request r ~src (good 1)) [ 3; 4; 5; 6 ];
  Alcotest.check status "future-view requests: active" V.Active r.vc.status

let test_stale_request_ignored () =
  let _, rs = make_cluster ~n:4 in
  let r = rs.(0) in
  V.install r.vc ~new_view:3 [];
  request r ~src:1 (good 1);
  Alcotest.(check bool) "from_view < view - 1 not stored" false
    (Hashtbl.mem r.vc.store 1);
  request r ~src:1 (good 2);
  Alcotest.(check bool) "from_view = view - 1 stored" true
    (Hashtbl.mem r.vc.store 2);
  (* An invalid certificate is dropped however current it is. *)
  request r ~src:1 { leaves = 3; ok = false };
  Alcotest.(check bool) "invalid not stored" false (Hashtbl.mem r.vc.store 3)

let test_nv_checks () =
  (* n = 4, nf = 3; replica 1 is the primary of view 1. *)
  let _, rs = make_cluster ~n:4 in
  let r = rs.(0) in
  let rejected what ~src vcs =
    propose r ~src ~new_view:1 vcs;
    Alcotest.(check int) (what ^ ": rejected") 0 (List.length r.adopted);
    Alcotest.(check int) (what ^ ": view unchanged") 0 r.vc.view
  in
  let c = good 0 in
  rejected "fewer than nf" ~src:1 [ (1, c); (2, c) ];
  rejected "duplicate sender" ~src:1 [ (1, c); (1, c); (2, c) ];
  rejected "not the new primary" ~src:2 [ (1, c); (2, c); (3, c) ];
  rejected "invalid summary" ~src:1 [ (1, c); (2, { c with ok = false }); (3, c) ];
  propose r ~src:1 ~new_view:1 [ (1, c); (2, c); (3, c) ];
  Alcotest.(check (list (pair int (list int))))
    "valid NV adopted" [ (1, [ 1; 2; 3 ]) ] r.adopted;
  Alcotest.(check int) "view installed" 1 r.vc.view;
  Alcotest.check status "active" V.Active r.vc.status;
  propose r ~src:1 ~new_view:1 [ (1, c); (2, c); (3, c) ];
  Alcotest.(check int) "an NV for the installed view is ignored" 1
    (List.length r.adopted)

let test_primary_gathers_first_nf () =
  (* Replica 1 leads view 1: it NV-proposes as soon as it holds nf valid
     certificates for view 0, its own included, taking the first nf by
     sender id. *)
  let _, rs = make_cluster ~n:4 in
  let r = rs.(1) in
  Vc.force_suspect r;
  request r ~src:0 { leaves = 0; ok = false };
  request r ~src:3 (good 0);
  Alcotest.(check int) "two valid: waiting" 0 (List.length r.adopted);
  request r ~src:2 (good 0);
  Alcotest.(check (list (pair int (list int))))
    "adopted the nf it holds" [ (1, [ 1; 2; 3 ]) ] r.adopted;
  Alcotest.(check int) "NV sent once" 1 r.vc.nv_sent_for;
  Alcotest.(check int) "view installed" 1 r.vc.view

let test_nv_deadline_backoff () =
  let engine, rs = make_cluster ~n:4 in
  let r = rs.(0) in
  Vc.force_suspect r;
  let started = ref (Engine.now engine) in
  (* No NV ever arrives: each deadline suspects the next primary, and the
     wait doubles up to 2^6 view timeouts. *)
  List.iteri
    (fun i mult ->
      Alcotest.check status
        (Printf.sprintf "round %d: leaving view %d" i i)
        (V.In_view_change i) r.vc.status;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "round %d: waits %g view timeouts" i mult)
        (mult *. view_timeout)
        (r.vc.nv_deadline -. !started);
      Alcotest.(check int) (Printf.sprintf "round %d counted" i) (i + 1)
        r.vc.round;
      started := r.vc.nv_deadline;
      Engine.run ~until:(r.vc.nv_deadline +. 1e-6) engine)
    [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 64. ];
  Alcotest.check status "deadline moved on to from_view + 1"
    (V.In_view_change 8) r.vc.status;
  Alcotest.(check int) "halted only once" 1 r.halts;
  (* Installing a view resets the backoff; the pending deadline of the
     abandoned view change no longer fires. *)
  let c = good 8 in
  propose r ~src:1 ~new_view:9 [ (1, c); (2, c); (3, c) ];
  Alcotest.(check int) "round reset" 0 r.vc.round;
  Engine.run ~until:(r.vc.nv_deadline +. 1e-6) engine;
  Alcotest.check status "stale deadline ignored" V.Active r.vc.status;
  Vc.force_suspect r;
  Alcotest.(check (float 1e-9)) "back to one view timeout" view_timeout
    (r.vc.nv_deadline -. Engine.now engine)

(* Every protocol's certificate check: executed entries form a
   consecutive run that ends at the summary's exec_upto. *)
let test_entries_end_at_exec_upto () =
  let entry e_seqno =
    { R.Message.e_seqno; e_view = 0;
      e_batch = R.Message.batch_of_requests ~materialize:false [] }
  in
  let run = List.map entry [ 5; 6; 7 ] in
  Alcotest.(check bool) "honest summary" true (V.entries_consecutive ~upto:7 run);
  Alcotest.(check bool) "no entries" true (V.entries_consecutive ~upto:7 []);
  Alcotest.(check bool) "entries stop one short of exec_upto" false
    (V.entries_consecutive ~upto:8 run);
  Alcotest.(check bool) "entries run past exec_upto" false
    (V.entries_consecutive ~upto:6 run);
  Alcotest.(check bool) "gap" false
    (V.entries_consecutive ~upto:7 (List.map entry [ 5; 7 ]))

let () =
  Alcotest.run "view_change"
    [
      ( "skeleton",
        [
          Alcotest.test_case "join needs f+1" `Quick test_join_needs_f_plus_one;
          Alcotest.test_case "stale request ignored" `Quick
            test_stale_request_ignored;
          Alcotest.test_case "NV checks" `Quick test_nv_checks;
          Alcotest.test_case "primary gathers first nf" `Quick
            test_primary_gathers_first_nf;
          Alcotest.test_case "NV deadline backoff" `Quick
            test_nv_deadline_backoff;
          Alcotest.test_case "entries end at exec_upto" `Quick
            test_entries_end_at_exec_upto;
        ] );
    ]
