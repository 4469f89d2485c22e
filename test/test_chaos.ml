(* Chaos-engine integration tests: seeded schedule generation is
   deterministic and budget-disciplined, every protocol survives seeded
   fault schedules with the mid-run safety auditor attached, and a
   deliberately broken protocol is caught the moment it diverges and its
   failing schedule shrinks to a minimal reproducer. *)

module R = Poe_runtime
module Config = R.Config
module Ctx = R.Replica_ctx
module Exec = R.Exec_engine
module Message = R.Message
module Block = Poe_ledger.Block
module Schedule = Poe_chaos.Schedule
module Generator = Poe_chaos.Generator
module Auditor = Poe_chaos.Auditor
module Runner = Poe_chaos.Runner

(* ------------------------------------------------------------------ *)
(* Generator: determinism and structure                                *)

let test_generator_deterministic () =
  let gen () =
    Generator.generate ~seed:314 ~n:7 ~byzantine:true ~horizon:2.0 ()
  in
  Alcotest.(check string)
    "same seed, byte-identical schedule"
    (Schedule.to_string (gen ()))
    (Schedule.to_string (gen ()));
  let other =
    Generator.generate ~seed:315 ~n:7 ~byzantine:true ~horizon:2.0 ()
  in
  Alcotest.(check bool)
    "different seed, different schedule" true
    (Schedule.to_string (gen ()) <> Schedule.to_string other)

let test_generator_valid_and_gated () =
  List.iter
    (fun seed ->
      let s = Generator.generate ~seed ~n:4 ~byzantine:false ~horizon:2.0 () in
      (match Schedule.validate ~n:4 s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: invalid schedule: %s" seed e);
      List.iter
        (fun { Schedule.action; _ } ->
          match action with
          | Schedule.Set_byzantine _ ->
              Alcotest.failf "seed %d: byzantine flip despite gating" seed
          | _ -> ())
        s)
    [ 1; 2; 3; 4; 5 ]

let test_byzantine_ok_gating () =
  (* All five protocols now run replica-driven view changes, so the
     generator is free to flip any of their primaries byzantine. Unknown
     protocol names stay gated. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) p true (Generator.byzantine_ok ~protocol:p))
    [ "poe"; "pbft"; "hotstuff"; "sbft"; "zyzzyva" ];
  Alcotest.(check bool)
    "unknown protocols stay gated" false
    (Generator.byzantine_ok ~protocol:"experimental")

(* ------------------------------------------------------------------ *)
(* Seeded sweeps: every protocol under generated chaos                 *)

let sweep (module P : R.Protocol_intf.S) seeds =
  let test () =
    let module Ch = Runner.Make (P) in
    List.iter
      (fun seed ->
        let o = Ch.run_seed ~seed ~horizon:1.0 ~drain:0.8 () in
        (match o.Ch.violation with
        | None -> ()
        | Some v ->
            Alcotest.failf "seed %d: %s@\nschedule:@\n%s" seed
              (Format.asprintf "%a" Auditor.pp_violation v)
              (Schedule.to_string o.Ch.schedule));
        Alcotest.(check bool)
          (Printf.sprintf "seed %d audited" seed)
          true (o.Ch.samples > 0))
      seeds
  in
  Alcotest.test_case (P.name ^ " chaos sweep") `Slow test

(* Zyzzyva schedules that ended with honest replicas split on a slot. In
   seed 110867 replica 2 equivocates as the primary of view 2, so replicas
   1 and 3 speculatively execute a forged batch at seqno 434 while 0 and 2
   execute the real one; in seed 190057 a partition, a crash and a loss
   burst leave the same kind of split at seqno 147. Neither side can
   gather a quorum of matching responses or checkpoint votes, and the
   clients' retry backoff delayed suspicion past the end of the run. The
   clients' proof of misbehavior (two results for one slot) now starts
   the view change that reconciles the split. The schedules are pinned so
   a generator change cannot quietly retire the regression. *)
let zyzzyva_split_schedules =
  [
    ( 110867,
      "t=0.2053  latency-surge x4.40 until=0.5320\n\
       t=0.2056  block link 0->2\n\
       t=0.2179  crash replica 0\n\
       t=0.5362  loss-burst bad=0.192 dwell=0.0730/0.0479 until=0.7649 \
       seed=372216712\n\
       t=0.5807  unblock link 0->2\n\
       t=0.7119  block link 2->3\n\
       t=0.7965  recover replica 0\n\
       t=1.0734  set replica 2 byzantine equivocate\n\
       t=1.1227  unblock link 2->3\n\
       t=1.7507  restore replica 2 honest" );
    ( 190057,
      "t=0.2560  partition {0}\n\
       t=0.5215  latency-surge x4.36 until=0.9852\n\
       t=0.6610  block link 1->2\n\
       t=0.9284  heal\n\
       t=0.9302  loss-burst bad=0.362 dwell=0.0957/0.0399 until=1.5112 \
       seed=205192075\n\
       t=0.9510  crash replica 2\n\
       t=0.9831  block link 1->3\n\
       t=1.1101  unblock link 1->2\n\
       t=1.3932  recover replica 2\n\
       t=1.4851  unblock link 1->3" );
  ]

let test_zyzzyva_split_reconciled () =
  let module Ch = Runner.Make (Poe_zyzzyva.Zyzzyva_protocol) in
  List.iter
    (fun (seed, schedule) ->
      let o = Ch.run_seed ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d schedule" seed)
        schedule
        (String.trim (Schedule.to_string o.Ch.schedule));
      (match o.Ch.violation with
      | None -> ()
      | Some v ->
          Alcotest.failf "seed %d: %s" seed
            (Format.asprintf "%a" Auditor.pp_violation v));
      Alcotest.(check string)
        (Printf.sprintf "seed %d verdict" seed)
        "clean" (Ch.verdict o))
    zyzzyva_split_schedules

let test_replay_determinism () =
  let module Ch = Runner.Make (Poe_core.Poe_protocol) in
  let once () = Ch.run_seed ~seed:7922 ~horizon:1.0 ~drain:0.6 () in
  let a = once () and b = once () in
  Alcotest.(check string)
    "schedules identical"
    (Schedule.to_string a.Ch.schedule)
    (Schedule.to_string b.Ch.schedule);
  Alcotest.(check bool)
    "verdicts identical" true
    (a.Ch.violation = b.Ch.violation);
  Alcotest.(check int) "same completions" a.Ch.completed b.Ch.completed;
  Alcotest.(check int) "same sample count" a.Ch.samples b.Ch.samples

(* ------------------------------------------------------------------ *)
(* A deliberately broken protocol: caught mid-run, then minimized      *)

(* "Broken consensus": the primary assigns sequence numbers and every
   replica executes whatever it is told, with no votes and no quorum.
   Under honest behavior this happens to agree; the moment the primary
   equivocates, the halves diverge — which the auditor must catch at the
   next sample, and the minimizer must pin on the single byzantine flip
   among the decoy faults. *)
type Message.t += Bk_propose of { seqno : int; batch : Message.batch }

module Broken = struct
  let name = "broken"

  type replica = {
    ctx : Ctx.t;
    exec : Exec.t;
    proposed : (int, unit) Hashtbl.t;
    mutable next_seqno : int;
  }

  let create_replica ctx =
    {
      ctx;
      exec = Exec.create ~ctx ();
      proposed = Hashtbl.create 256;
      next_seqno = 0;
    }

  let start_replica _ = ()
  let proof = Block.Vote_certificate []

  let propose t (req : Message.request) =
    let key = Message.request_key req in
    if not (Hashtbl.mem t.proposed key) then begin
      Hashtbl.replace t.proposed key ();
      let seqno = t.next_seqno in
      t.next_seqno <- seqno + 1;
      let cfg = Ctx.config t.ctx in
      let batch =
        Message.batch_of_requests ~materialize:cfg.Config.materialize [ req ]
      in
      let bytes = Message.Wire.propose cfg in
      (match Ctx.behavior t.ctx with
      | Ctx.Equivocate ->
          let others =
            List.init cfg.Config.n Fun.id
            |> List.filter (fun i -> i <> Ctx.id t.ctx)
          in
          let half = List.length others / 2 in
          let left = List.filteri (fun i _ -> i < half) others in
          let right = List.filteri (fun i _ -> i >= half) others in
          let forged =
            { batch with Message.digest = batch.Message.digest ^ "!forged" }
          in
          Ctx.broadcast_to t.ctx ~dsts:left ~bytes (Bk_propose { seqno; batch });
          Ctx.broadcast_to t.ctx ~dsts:right ~bytes
            (Bk_propose { seqno; batch = forged })
      | _ ->
          Ctx.broadcast_replicas t.ctx ~bytes (Bk_propose { seqno; batch }));
      Exec.offer t.exec ~seqno ~view:0 ~batch ~proof
    end

  let on_message t ~src:_ msg =
    match msg with
    | Bk_propose { seqno; batch } ->
        Exec.offer t.exec ~seqno ~view:0 ~batch ~proof
    | Message.Client_request req | Message.Client_forward req ->
        if Ctx.id t.ctx = 0 then propose t req
    | Message.Client_request_bundle reqs ->
        if Ctx.id t.ctx = 0 then List.iter (propose t) reqs
    | _ -> ()

  let receive_cost ~src cfg (cost : R.Cost.t) msg =
    match R.Protocol_intf.client_receive_cost ~src cfg cost msg with
    | Some c -> c
    | None -> cost.R.Cost.msg_in +. cost.R.Cost.mac_verify

  let hub_hooks _ =
    {
      R.Hub_core.quorum = 1;
      send_mode = R.Hub_core.To_primary;
      on_timeout = None;
      on_message = None;
    }

  let current_view _ = 0
  let ctx t = t.ctx
end

(* One byzantine flip hidden among decoy faults the minimizer must
   discard. Times chosen so the flip is live well before the decoys
   overlap it. *)
let broken_schedule =
  Schedule.sort
    [
      { Schedule.at = 0.25; action = Schedule.Block_link { src = 3; dst = 2 } };
      {
        Schedule.at = 0.30;
        action = Schedule.Set_byzantine { replica = 0; byz = Schedule.Equivocate };
      };
      {
        Schedule.at = 0.45;
        action = Schedule.Latency_surge { factor = 2.0; until = 0.6 };
      };
      { Schedule.at = 0.55; action = Schedule.Unblock_link { src = 3; dst = 2 } };
      { Schedule.at = 0.70; action = Schedule.Restore_honest 0 };
      { Schedule.at = 0.75; action = Schedule.Crash 2 };
      { Schedule.at = 0.90; action = Schedule.Recover 2 };
    ]

let test_broken_protocol_caught_and_minimized () =
  let module Ch = Runner.Make (Broken) in
  let params = Ch.default_params ~seed:1 ~n:4 in
  let o = Ch.run ~horizon:1.2 ~drain:0.6 ~params ~schedule:broken_schedule () in
  match o.Ch.violation with
  | None -> Alcotest.fail "equivocating primary not caught"
  | Some v ->
      Alcotest.(check string) "invariant" "prefix-agreement" v.Auditor.invariant;
      (* Caught mid-run: within a couple of sample intervals of the flip,
         long before the run (and its decoy faults) finished. *)
      Alcotest.(check bool)
        (Printf.sprintf "caught promptly (t=%.2f)" v.Auditor.at)
        true
        (v.Auditor.at < 0.7);
      let minimal, oracle_runs =
        Ch.minimize ~horizon:1.2 ~drain:0.6 ~params ~schedule:broken_schedule
          ~violation_at:v.Auditor.at ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "minimized to %d action(s) in %d runs"
           (List.length minimal) oracle_runs)
        true
        (List.length minimal <= 5);
      (* The byzantine flip itself can never be shrunk away. *)
      Alcotest.(check bool)
        "flip survives minimization" true
        (List.exists
           (fun { Schedule.action; _ } ->
             match action with
             | Schedule.Set_byzantine { replica = 0; _ } -> true
             | _ -> false)
           minimal);
      (* The minimal schedule still reproduces. *)
      let o' = Ch.run ~horizon:1.2 ~drain:0.6 ~params ~schedule:minimal () in
      Alcotest.(check bool) "minimal schedule reproduces" true
        (o'.Ch.violation <> None)

(* With a trace sink installed, the same violation additionally yields a
   forensic report: the implicated slot, the cross-replica divergence the
   equivocation caused, the fault actions in play — and the whole report
   is byte-identical across same-seed runs. *)

module An = Poe_analysis

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_forensics_on_violation () =
  let module Ch = Runner.Make (Broken) in
  let params = Ch.default_params ~seed:1 ~n:4 in
  let once () =
    let tr = Poe_obs.Trace.create () in
    Poe_obs.Trace.set tr;
    Fun.protect ~finally:Poe_obs.Trace.clear (fun () ->
        Ch.run ~horizon:1.2 ~drain:0.6 ~params ~schedule:broken_schedule ())
  in
  let o = once () in
  (match o.Ch.violation with
  | None -> Alcotest.fail "equivocating primary not caught"
  | Some _ -> ());
  match o.Ch.forensics with
  | None -> Alcotest.fail "violation with a sink installed but no forensics"
  | Some f ->
      Alcotest.(check string) "invariant" "prefix-agreement"
        f.An.Forensics.invariant;
      Alcotest.(check bool) "implicates at least one slot" true
        (f.An.Forensics.slots <> []);
      (match f.An.Forensics.divergence with
      | None -> Alcotest.fail "no divergence point found in trace"
      | Some d ->
          Alcotest.(check bool) "divergent digests differ" true
            (d.An.Forensics.d_digest_a <> d.An.Forensics.d_digest_b);
          Alcotest.(check bool) "forged digest visible" true
            (contains d.An.Forensics.d_digest_a "!forged"
            || contains d.An.Forensics.d_digest_b "!forged"));
      Alcotest.(check bool) "fault-schedule actions recorded" true
        (f.An.Forensics.faults <> []);
      Alcotest.(check bool) "byzantine flip among recorded faults" true
        (List.exists
           (fun (fa : An.Forensics.fault) ->
             fa.An.Forensics.f_action = "chaos_set_byzantine")
           f.An.Forensics.faults);
      let text = An.Report.forensics_to_string f in
      Alcotest.(check bool) "report names a violating slot" true
        (List.exists
           (fun s -> contains text (Printf.sprintf "slot %d" s))
           f.An.Forensics.slots
        || contains text "implicated slots:");
      Alcotest.(check bool) "report shows the causal timeline" true
        (contains text "causal timeline");
      (* Same seed, same schedule: the forensic report is byte-identical. *)
      let o' = once () in
      (match o'.Ch.forensics with
      | None -> Alcotest.fail "second run lost its forensics"
      | Some f' ->
          Alcotest.(check string) "byte-identical forensic report" text
            (An.Report.forensics_to_string f'))

(* With a sink installed, a violation also triggers a fault-attribution
   diff: the runner re-runs the same seed with the schedule stripped and
   localizes the first divergence between the faulty and clean
   histories, joined with the fault actions that had fired by then. *)

let test_attribution_on_violation () =
  let module Ch = Runner.Make (Broken) in
  let params = Ch.default_params ~seed:1 ~n:4 in
  let tr = Poe_obs.Trace.create () in
  Poe_obs.Trace.set tr;
  let o =
    Fun.protect ~finally:Poe_obs.Trace.clear (fun () ->
        Ch.run ~horizon:1.2 ~drain:0.6 ~params ~schedule:broken_schedule ())
  in
  (match o.Ch.violation with
  | None -> Alcotest.fail "equivocating primary not caught"
  | Some _ -> ());
  match o.Ch.attribution with
  | None -> Alcotest.fail "violation with a sink installed but no attribution"
  | Some a ->
      (* Broken only misbehaves under the injected byzantine flip, so the
         fault-free baseline must come back clean... *)
      Alcotest.(check string) "clean re-run verdict" "clean" a.Ch.a_clean_verdict;
      (* ...and the histories must demonstrably split. *)
      (match a.Ch.a_diff with
      | Poe_diff.Trace_diff.Diverged d ->
          Alcotest.(check bool)
            (Printf.sprintf "divergence not before the first fault (t=%.3f)"
               d.Poe_diff.Trace_diff.d_ts)
            true
            (d.Poe_diff.Trace_diff.d_ts >= 0.25)
      | od ->
          Alcotest.failf "expected diverged, got: %s"
            (Poe_diff.Trace_diff.render od));
      Alcotest.(check bool) "at least one intersecting fault action" true
        (a.Ch.a_faults <> []);
      (* Every attributed fault fired by the divergence; the decoy crash
         at t=0.75 (after the violation) must not be blamed. *)
      Alcotest.(check bool) "no post-divergence fault blamed" true
        (List.for_all
           (fun (fa : An.Forensics.fault) -> fa.An.Forensics.f_at < 0.75)
           a.Ch.a_faults)

(* ------------------------------------------------------------------ *)
(* Liveness: the stall watchdog as a first-class verdict               *)

module Live = Poe_live

(* Silencing the primary used to stall SBFT and Zyzzyva forever (their
   [on_suspect] was a no-op); both now run replica-driven view changes,
   so the same schedules that were this suite's canonical stall
   reproducers must finish clean. The stall window is sized to the
   measured failover physics: the hubs' retransmission backoff delays
   the first suspicion to ~0.7 s after the silence, a dead intermediate
   view (its collector partitioned during entry) costs one more
   escalation round, and SBFT's first post-failover commit waits out the
   collector's slow-path timer — ~2.2 s worst-case from last commit to
   first new-view commit across the regression seeds. A cluster that
   never fails over still latches: the window expires well inside the
   horizon+drain tail. *)
let silence_primary_at t =
  {
    Schedule.at = t;
    action = Schedule.Set_byzantine { replica = 0; byz = Schedule.Silent };
  }

let failover_case (module P : R.Protocol_intf.S) seeds =
  let test () =
    let module Ch = Runner.Make (P) in
    List.iter
      (fun seed ->
        let o =
          Ch.run_seed ~seed ~horizon:2.0 ~drain:1.2 ~stall_window:2.5
            ~extra:[ silence_primary_at 0.3 ] ()
        in
        (match o.Ch.stall with
        | None -> ()
        | Some s ->
            Alcotest.failf "%s seed %d: stalled (%s at t=%.2f) — failover dead"
              P.name seed s.Live.Watchdog.s_reason s.Live.Watchdog.s_at);
        (match o.Ch.violation with
        | None -> ()
        | Some v ->
            Alcotest.failf "%s seed %d: %s" P.name seed
              (Format.asprintf "%a" Auditor.pp_violation v));
        Alcotest.(check string)
          (Printf.sprintf "seed %d verdict" seed)
          "clean" (Ch.verdict o);
        Alcotest.(check int) (Printf.sprintf "seed %d exit" seed) 0
          (Ch.exit_code o);
        (* Progress assertion: with the primary dead from t=0.3 and the
           watchdog armed, a clean verdict already implies post-failover
           commits — the window would otherwise expire at t=2.85 with
           the un-served requests outstanding. The completion floor
           guards the degenerate no-clients case. *)
        Alcotest.(check bool)
          (Printf.sprintf "seed %d made progress" seed)
          true (o.Ch.completed > 0))
      seeds
  in
  Alcotest.test_case (P.name ^ " survives silenced primary") `Slow test

let test_step_budget_stall () =
  let module Ch = Runner.Make (Poe_pbft.Pbft_protocol) in
  let params = Ch.default_params ~seed:5 ~n:4 in
  let o =
    Ch.run ~horizon:2.0 ~drain:0.5 ~step_budget:500 ~params ~schedule:[] ()
  in
  (match o.Ch.stall with
  | None -> Alcotest.fail "exhausted step budget did not latch a stall"
  | Some s ->
      Alcotest.(check string) "stall reason" "step-budget"
        s.Live.Watchdog.s_reason);
  Alcotest.(check int) "exit code" 3 (Ch.exit_code o)

let test_no_false_stall () =
  (* A healthy cluster with the watchdog armed must stay clean: steady
     progress keeps resetting the window, and the drained idle tail
     (zero outstanding) must not count as a stall. *)
  let module Ch = Runner.Make (Poe_pbft.Pbft_protocol) in
  let params = Ch.default_params ~seed:5 ~n:4 in
  let o = Ch.run ~horizon:1.0 ~drain:0.8 ~stall_window:0.3 ~params ~schedule:[] () in
  Alcotest.(check bool) "no stall" true (o.Ch.stall = None);
  Alcotest.(check bool) "no violation" true (o.Ch.violation = None);
  Alcotest.(check string) "verdict" "clean" (Ch.verdict o);
  Alcotest.(check int) "exit code" 0 (Ch.exit_code o);
  Alcotest.(check bool) "made progress" true (o.Ch.completed > 0)

let test_stall_minimized () =
  (* The greedy minimizer works for stalls too. A silenced primary alone
     no longer stalls SBFT (the view change routes around it), so the
     reproducer breaches the fault budget: primary silent AND a backup
     crashed is 2 > f=1 concurrent faults — no view-change quorum, the
     cluster wedges. The minimizer must shrink the decoys away while
     keeping both load-bearing faults (neither alone stalls). The stall
     window must be the failover-validated 2.5 s: anything shorter and a
     *single* recoverable fault also "stalls" (failover itself takes
     ~1.3-2.2 s from the last pre-fault commit), which would let the
     minimizer drop one of the two faults. The 3.2 s run still latches
     the genuine wedge at last-commit + 2.5 ~= 2.85 s. *)
  let module Ch = Runner.Make (Poe_sbft.Sbft_protocol) in
  let params = Ch.default_params ~seed:5 ~n:4 in
  let noisy =
    Schedule.sort
      [
        { Schedule.at = 0.1; action = Schedule.Block_link { src = 3; dst = 2 } };
        silence_primary_at 0.3;
        { Schedule.at = 0.35; action = Schedule.Crash 2 };
        {
          Schedule.at = 0.4;
          action = Schedule.Latency_surge { factor = 2.0; until = 0.6 };
        };
        { Schedule.at = 0.5; action = Schedule.Unblock_link { src = 3; dst = 2 } };
      ]
  in
  let o =
    Ch.run ~horizon:2.0 ~drain:1.2 ~stall_window:2.5 ~params ~schedule:noisy ()
  in
  match o.Ch.stall with
  | None -> Alcotest.fail "over-budget schedule did not stall"
  | Some s ->
      let minimal, oracle_runs =
        Ch.minimize ~horizon:2.0 ~drain:1.2 ~stall_window:2.5
          ~check:(fun o -> o.Ch.stall <> None)
          ~params ~schedule:noisy ~violation_at:s.Live.Watchdog.s_at ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "minimized to %d action(s) in %d runs"
           (List.length minimal) oracle_runs)
        true
        (List.length minimal < List.length noisy);
      Alcotest.(check bool) "silent flip survives minimization" true
        (List.exists
           (fun { Schedule.action; _ } ->
             match action with
             | Schedule.Set_byzantine { replica = 0; byz = Schedule.Silent } ->
                 true
             | _ -> false)
           minimal);
      let o' =
        Ch.run ~horizon:2.0 ~drain:1.2 ~stall_window:2.5 ~params
          ~schedule:minimal ()
      in
      Alcotest.(check bool) "minimal schedule still stalls" true
        (o'.Ch.stall <> None)

let test_heartbeat_determinism () =
  (* The heartbeat JSONL stream is a pure function of the seed: sweeping
     the same seeds at different job counts yields byte-identical
     streams once the wall-clock field is stripped. *)
  let module Ch = Runner.Make (Poe_pbft.Pbft_protocol) in
  let seeds = [ 61; 62; 63 ] in
  let sweep jobs =
    Ch.run_sweep ~horizon:1.0 ~drain:0.6 ~heartbeat_interval:0.1 ~jobs ~seeds
      ()
    |> List.map (fun (seed, o) ->
           (seed, Poe_obs.Json.strip_unstable_text o.Ch.heartbeats))
  in
  let seq = sweep 1 and par = sweep 4 in
  List.iter2
    (fun (seed, a) (seed', b) ->
      Alcotest.(check int) "seed order preserved" seed seed';
      Alcotest.(check bool)
        (Printf.sprintf "seed %d heartbeats non-empty" seed)
        true (a <> "");
      Alcotest.(check string)
        (Printf.sprintf "seed %d byte-identical across job counts" seed)
        a b)
    seq par;
  (* And distinct seeds produce distinct streams (the probe is real). *)
  match seq with
  | (_, a) :: (_, b) :: _ ->
      Alcotest.(check bool) "different seeds differ" true (a <> b)
  | _ -> Alcotest.fail "sweep lost seeds"

let () =
  Alcotest.run "chaos"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic by seed" `Quick
            test_generator_deterministic;
          Alcotest.test_case "valid and byzantine-gated" `Quick
            test_generator_valid_and_gated;
          Alcotest.test_case "byzantine_ok per protocol" `Quick
            test_byzantine_ok_gating;
        ] );
      ( "sweeps",
        [
          sweep (module Poe_core.Poe_protocol) [ 11; 12 ];
          sweep (module Poe_pbft.Pbft_protocol) [ 21; 22 ];
          sweep (module Poe_zyzzyva.Zyzzyva_protocol) [ 31; 32 ];
          sweep (module Poe_sbft.Sbft_protocol) [ 41; 42 ];
          sweep (module Poe_hotstuff.Hotstuff_protocol) [ 51; 52 ];
          Alcotest.test_case "replay determinism" `Slow test_replay_determinism;
          Alcotest.test_case "zyzzyva split slots reconciled" `Quick
            test_zyzzyva_split_reconciled;
        ] );
      ( "broken-protocol",
        [
          Alcotest.test_case "caught mid-run and minimized" `Quick
            test_broken_protocol_caught_and_minimized;
          Alcotest.test_case "forensic report on violation" `Quick
            test_forensics_on_violation;
          Alcotest.test_case "fault attribution on violation" `Quick
            test_attribution_on_violation;
        ] );
      ( "liveness",
        [
          (* Seeds 1 and 3 are the counterexamples this PR's failover
             work was debugged against (seed 1: executor response path
             GC'd mid-aggregation; seed 3: dead intermediate view with a
             partitioned collector) — kept as regressions. *)
          failover_case (module Poe_sbft.Sbft_protocol) [ 1; 3 ];
          failover_case (module Poe_zyzzyva.Zyzzyva_protocol) [ 1; 3 ];
          Alcotest.test_case "step budget latches a stall" `Quick
            test_step_budget_stall;
          Alcotest.test_case "healthy cluster never false-stalls" `Slow
            test_no_false_stall;
          Alcotest.test_case "stall schedules minimize" `Slow
            test_stall_minimized;
          Alcotest.test_case "heartbeats byte-identical across jobs" `Slow
            test_heartbeat_determinism;
        ] );
    ]
