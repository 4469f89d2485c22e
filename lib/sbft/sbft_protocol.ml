module R = Poe_runtime
module Config = R.Config
module Cost = R.Cost
module Message = R.Message
module Server = R.Server
module Ctx = R.Replica_ctx
module Pipeline = R.Pipeline
module Exec = R.Exec_engine
module Recovery = R.Recovery
module Hub = R.Hub_core
module V = R.View_change
module Quorum = R.Quorum
module Block = Poe_ledger.Block

let name = "sbft"

module Trace = Poe_obs.Trace

(* View-change summary: executed prefix above the stable checkpoint, plus
   two certificate strengths for in-flight slots — [certified] (a commit
   proof for the slot was seen: the linearized equivalent of PBFT's
   prepared certificates) and [shared] (this replica signed a share for
   the slot; the fast path commits on n of these, so f+1 matching shared
   claims witness any fast-path commit). *)
type vc_payload = {
  from_view : int;
  exec_upto : int;
  executed : Message.exec_entry list;
  certified : Message.exec_entry list;
  shared : Message.exec_entry list;
}

type Message.t +=
  | S_preprepare of { view : int; seqno : int; batch : Message.batch }
  | S_share of { view : int; seqno : int; digest : string }
      (* replica -> collector *)
  | S_commit_proof of { view : int; seqno : int; digest : string; full : bool }
      (* collector -> all; [full] = fast path (all n shares) *)
  | S_share2 of { view : int; seqno : int; digest : string }
      (* slow path, 2nd round *)
  | S_final_proof of { view : int; seqno : int; digest : string }
  | S_exec_share of { seqno : int; result : string } (* replica -> executor *)
  | S_exec_proof of { seqno : int; result : string } (* executor -> all *)

(* Collector-side per-slot state. *)
type coll_slot = {
  shares : Quorum.t;
  shares2 : Quorum.t;
  mutable proof_sent : bool;       (* fast or slow first proof *)
  mutable final_sent : bool;
  mutable timer_armed : bool;
}

type pending_proof = P_first of string * bool | P_final of string

(* Replica-side per-slot state. *)
type slot = {
  mutable batch : Message.batch option;
  mutable share_sent : bool;
  mutable certified : bool;  (* some commit proof for this slot was seen *)
  mutable committed : bool;  (* commit proof received -> execute *)
  mutable offered : bool;
  mutable pending_proof : pending_proof option;
      (* proof that raced ahead of the NEW-VIEW activating its view *)
}

type replica = {
  ctx : Ctx.t;
  exec : Exec.t;
  pipeline : Pipeline.t;
  recovery : Recovery.t;
  slots : (int, slot) Hashtbl.t;
      (* keyed by (view, seqno) packed into one int: view lsl 40 lor seqno *)
  coll : (int, coll_slot) Hashtbl.t;      (* collector only, same key *)
  exec_shares : (int, Quorum.t) Hashtbl.t; (* executor only *)
  exec_results : (int, Message.batch * string) Hashtbl.t;
      (* own execution output per slot, kept by every replica (GCed at
         the stable checkpoint) so whichever replica is executor — now
         or after a failover — can aggregate and answer the clients *)
  exec_proof_sent : (int, unit) Hashtbl.t;
  reply_cache : (int, int * int * string) Hashtbl.t;
      (* client slot (hub lsl 19 lor client) -> (rid, seqno, result) of
         the last aggregate response sent to that client. Clients are
         closed-loop, so one cached reply per client heals any lost
         single aggregate response on retry — even after checkpoint GC
         has dropped the batch itself (PBFT's classic reply cache). *)
  exec_rids : (int, int) Hashtbl.t;
      (* client slot -> highest executed rid. Clients are closed-loop,
         so a client whose latest request executed but was never
         answered is stuck at that rid forever — visible locally to
         every replica, without observing the (hub-bound) responses. *)
  retries : (int, float) Hashtbl.t;
      (* executed requests with a pending stuck-client check: a retry of
         an executed request schedules one; if the client has made no
         rid progress by then, the executor failed after consensus
         finished — the one failure the quorum path cannot see — and we
         rotate the view (and with it the executor role) *)
  mutable next_seqno : int;
  vc : vc_payload V.t;
  mutable vc_phase_slot : int;
      (* slot carrying the open "view_change" phase span *)
}

let ctx t = t.ctx
let current_view t = t.vc.view
let view_of = current_view
let k_exec t = Exec.k_exec t.exec
let cfg t = Ctx.config t.ctx
let costs t = Ctx.cost t.ctx
let nf t = Config.nf (cfg t)
let fq t = Config.f (cfg t)
let n t = (cfg t).Config.n

(* View-relative roles (the paper recommends distinct primary / collector /
   executor replicas, §IV-A); rotating all three with the view restores
   liveness whichever of them fails. *)
let primary_of t view = Config.primary_of_view (cfg t) view
let collector_of t view = (primary_of t view + 1) mod n t
let executor_of t view = (primary_of t view + 2) mod n t

let is_primary t = Ctx.is_primary_of t.ctx t.vc.view
let is_collector_of t view = Ctx.id t.ctx = collector_of t view
let is_executor t = Ctx.id t.ctx = executor_of t t.vc.view
let active_in t view = V.active_in t.vc view
let in_view_change t = V.in_view_change t.vc

let stable_seqno t = Exec.stable t.exec

let slot_key ~view ~seqno = (view lsl 40) lor seqno
let slot_key_view key = key lsr 40
let slot_key_seqno key = key land ((1 lsl 40) - 1)

let tr_phase t ~view ~seqno phase =
  Ctx.trace_phase t.ctx ~cat:name ~view ~seqno phase

let slot_of t ~view ~seqno =
  match Hashtbl.find_opt t.slots (slot_key ~view ~seqno) with
  | Some s -> s
  | None ->
      let s =
        {
          batch = None;
          share_sent = false;
          certified = false;
          committed = false;
          offered = false;
          pending_proof = None;
        }
      in
      Hashtbl.replace t.slots (slot_key ~view ~seqno) s;
      s

let coll_slot_of t ~view ~seqno =
  match Hashtbl.find_opt t.coll (slot_key ~view ~seqno) with
  | Some s -> s
  | None ->
      let s =
        {
          shares = Quorum.create (n t);
          shares2 = Quorum.create (n t);
          proof_sent = false;
          final_sent = false;
          timer_armed = false;
        }
      in
      Hashtbl.replace t.coll (slot_key ~view ~seqno) s;
      s

let maybe_execute t ~view ~seqno slot =
  match slot.batch with
  | Some batch when slot.committed && not slot.offered ->
      slot.offered <- true;
      Exec.offer t.exec ~seqno ~view ~batch
        ~proof:(Block.Threshold_sig "sbft-commit")
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)

let send_proof t ~view ~seqno ~digest ~full =
  let c = costs t in
  Ctx.work t.ctx Server.Worker
    ~cost:(Cost.combine_cost c ~shares:(if full then n t else nf t))
    (fun () ->
      Ctx.broadcast_replicas t.ctx ~include_self:true ~bytes:Message.Wire.vote
        (S_commit_proof { view; seqno; digest; full }))

(* The collector's twin-path decision: all n shares -> fast path; on
   timeout with >= nf -> slow path (two extra linear phases). *)
let collector_check t ~view ~seqno =
  let cs = coll_slot_of t ~view ~seqno in
  if not cs.proof_sent then
    match Quorum.best cs.shares with
    | Some (digest, count) when count >= n t ->
        cs.proof_sent <- true;
        cs.final_sent <- true; (* fast path needs no second round *)
        send_proof t ~view ~seqno ~digest ~full:true
    | Some _ | None -> ()

let rec collector_timeout t ~view ~seqno =
  let cs = coll_slot_of t ~view ~seqno in
  if (not cs.proof_sent) && view >= t.vc.view then begin
    match Quorum.best cs.shares with
    | Some (digest, count) when count >= nf t ->
        (* Slow path, phase 1: circulate the nf-aggregate for re-signing. *)
        cs.proof_sent <- true;
        send_proof t ~view ~seqno ~digest ~full:false
    | Some _ | None ->
        (* Not even nf shares: keep waiting (e.g. proposals still in
           flight); re-arm — until a view change retires the view. *)
        Ctx.schedule t.ctx ~delay:(cfg t).Config.request_timeout (fun () ->
            collector_timeout t ~view ~seqno)
  end

let arm_collector_timer t ~view ~seqno =
  let cs = coll_slot_of t ~view ~seqno in
  if not cs.timer_armed then begin
    cs.timer_armed <- true;
    Ctx.schedule t.ctx ~delay:(cfg t).Config.request_timeout (fun () ->
        collector_timeout t ~view ~seqno)
  end

let on_share t ~src ~view ~seqno ~digest =
  (* The collector of a future view may legitimately aggregate before its
     own NEW-VIEW arrives: the shares prove the view is live elsewhere. *)
  if is_collector_of t view && view >= t.vc.view then begin
    let cs = coll_slot_of t ~view ~seqno in
    if Quorum.add cs.shares ~src ~digest = Quorum.Added then begin
      let c = costs t in
      arm_collector_timer t ~view ~seqno;
      Ctx.work t.ctx Server.Worker ~cost:c.Cost.ts_share_verify (fun () ->
          collector_check t ~view ~seqno)
    end
  end

let on_share2 t ~src ~view ~seqno ~digest =
  if is_collector_of t view && view >= t.vc.view then begin
    let cs = coll_slot_of t ~view ~seqno in
    if
      Quorum.add cs.shares2 ~src ~digest = Quorum.Added
      && (not cs.final_sent)
      && Quorum.count cs.shares2 digest >= nf t
    then begin
      cs.final_sent <- true;
      let c = costs t in
      Ctx.work t.ctx Server.Worker
        ~cost:(Cost.combine_cost c ~shares:(nf t))
        (fun () ->
          Ctx.broadcast_replicas t.ctx ~include_self:true
            ~bytes:Message.Wire.vote
            (S_final_proof { view; seqno; digest }))
    end
  end

(* ------------------------------------------------------------------ *)
(* Replica roles                                                       *)

let send_share t ~view ~seqno (batch : Message.batch) =
  let slot = slot_of t ~view ~seqno in
  if not slot.share_sent then begin
    slot.share_sent <- true;
    slot.batch <- Some batch;
    tr_phase t ~view ~seqno "propose";
    let c = costs t in
    let cpu =
      Cost.hash_cost c ~bytes:(Message.Wire.propose (cfg t))
      +. c.Cost.ts_share_sign
    in
    Ctx.work t.ctx Server.Worker ~cost:cpu (fun () ->
        tr_phase t ~view ~seqno "share";
        Ctx.send_replica t.ctx ~dst:(collector_of t view)
          ~bytes:Message.Wire.vote
          (S_share { view; seqno; digest = batch.Message.digest }))
  end

let process_first_proof t ~view ~seqno slot ~digest ~full =
  if full then begin
    if not slot.committed then begin
      let c = costs t in
      Ctx.work t.ctx Server.Worker ~cost:c.Cost.ts_verify (fun () ->
          slot.committed <- true;
          tr_phase t ~view ~seqno "commit";
          maybe_execute t ~view ~seqno slot)
    end
  end
  else begin
    (* Slow path: re-sign the aggregate (second share round). *)
    if Trace.enabled () then
      Trace.instant ~ts:(Ctx.now t.ctx) ~node:(Ctx.id t.ctx) ~cat:name
        ~seqno "slow_path";
    Poe_prof.Prof.(bump ix_slow_paths);
    let c = costs t in
    Ctx.work t.ctx Server.Worker
      ~cost:(c.Cost.ts_verify +. c.Cost.ts_share_sign)
      (fun () ->
        Ctx.send_replica t.ctx ~dst:(collector_of t view)
          ~bytes:Message.Wire.vote
          (S_share2 { view; seqno; digest }))
  end

let process_final_proof t ~view ~seqno slot =
  if not slot.committed then begin
    let c = costs t in
    Ctx.work t.ctx Server.Worker ~cost:c.Cost.ts_verify (fun () ->
        slot.committed <- true;
        tr_phase t ~view ~seqno "commit";
        maybe_execute t ~view ~seqno slot)
  end

let on_commit_proof t ~src ~view ~seqno ~digest ~full =
  if view >= t.vc.view && src = collector_of t view then begin
    let slot = slot_of t ~view ~seqno in
    match slot.batch with
    | Some batch when String.equal batch.Message.digest digest ->
        (* Any commit proof is a certificate for the view-change summary,
           whether or not the slot ever executes in this view. *)
        slot.certified <- true;
        if active_in t view then
          process_first_proof t ~view ~seqno slot ~digest ~full
        else if view > t.vc.view then
          slot.pending_proof <- Some (P_first (digest, full))
    | Some _ | None -> ()
  end

let on_final_proof t ~src ~view ~seqno ~digest =
  if view >= t.vc.view && src = collector_of t view then begin
    let slot = slot_of t ~view ~seqno in
    match slot.batch with
    | Some batch when String.equal batch.Message.digest digest ->
        slot.certified <- true;
        if active_in t view then process_final_proof t ~view ~seqno slot
        else if view > t.vc.view then
          slot.pending_proof <- Some (P_final digest)
    | Some _ | None -> ()
  end

let on_preprepare t ~src ~view ~seqno (batch : Message.batch) =
  if
    view >= t.vc.view
    && src = primary_of t view
    && not (Ctx.is_primary_of t.ctx view)
  then begin
    let slot = slot_of t ~view ~seqno in
    if slot.batch = None then begin
      slot.batch <- Some batch;
      if active_in t view then send_share t ~view ~seqno batch
    end
  end

let activate_pending_slots t =
  let view = t.vc.view in
  Hashtbl.iter
    (fun key slot ->
      if slot_key_view key = view then begin
        let seqno = slot_key_seqno key in
        (match slot.batch with
        | Some batch when not slot.share_sent -> send_share t ~view ~seqno batch
        | Some _ | None -> ());
        match slot.pending_proof with
        | Some (P_first (digest, full)) ->
            slot.pending_proof <- None;
            process_first_proof t ~view ~seqno slot ~digest ~full
        | Some (P_final _) ->
            slot.pending_proof <- None;
            process_final_proof t ~view ~seqno slot
        | None -> ()
      end)
    (Hashtbl.copy t.slots)

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)

let executor_respond t ~seqno ~result =
  match Hashtbl.find_opt t.exec_results seqno with
  | Some (batch, _) when not (Hashtbl.mem t.exec_proof_sent seqno) ->
      Hashtbl.replace t.exec_proof_sent seqno ();
      let c = costs t in
      Ctx.work t.ctx Server.Worker
        ~cost:(Cost.combine_cost c ~shares:(fq t + 1))
        (fun () ->
          (* One aggregate response reaches the clients (I4's "response
             aggregation"), plus the broadcast back to all replicas. *)
          Ctx.broadcast_replicas t.ctx ~bytes:Message.Wire.vote
            (S_exec_proof { seqno; result });
          Exec.send_responses t.exec ~view:t.vc.view ~seqno ~batch
            ~result_digest:result;
          Array.iter
            (fun (r : Message.request) ->
              Hashtbl.replace t.reply_cache
                ((r.Message.hub lsl 19) lor r.Message.client)
                (r.Message.rid, seqno, result))
            batch.Message.reqs)
  | Some _ | None -> ()

let on_exec_share t ~src ~seqno ~result =
  if is_executor t then begin
    let bucket = Quorum.find_or_create t.exec_shares seqno ~n:(n t) in
    if
      Quorum.add bucket ~src ~digest:result = Quorum.Added
      && Quorum.count bucket result >= fq t + 1
    then executor_respond t ~seqno ~result
  end

let on_executed t ~seqno ~batch ~result =
  if is_primary t then Pipeline.seqno_closed t.pipeline;
  Recovery.note_executed t.recovery ~seqno ~batch;
  (* Every replica keeps its own (batch, result): the executor needs it
     to answer the clients once f+1 shares agree, and after an executor
     failover whichever replica takes the role needs it retroactively. *)
  Hashtbl.replace t.exec_results seqno (batch, result);
  Array.iter
    (fun (r : Message.request) ->
      let slot = (r.Message.hub lsl 19) lor r.Message.client in
      match Hashtbl.find_opt t.exec_rids slot with
      | Some best when best >= r.Message.rid -> ()
      | Some _ | None -> Hashtbl.replace t.exec_rids slot r.Message.rid)
    batch.Message.reqs;
  if is_executor t then on_exec_share t ~src:(Ctx.id t.ctx) ~seqno ~result
  else begin
    let c = costs t in
    Ctx.work t.ctx Server.Worker ~cost:c.Cost.ts_share_sign (fun () ->
        Ctx.send_replica t.ctx ~dst:(executor_of t t.vc.view)
          ~bytes:Message.Wire.vote
          (S_exec_share { seqno; result }))
  end

(* ------------------------------------------------------------------ *)
(* Primary                                                             *)

let propose_batch t (batch : Message.batch) =
  if Ctx.alive t.ctx && not (in_view_change t) && is_primary t then begin
    let seqno = t.next_seqno in
    t.next_seqno <- seqno + 1;
    let view = t.vc.view in
    (match Ctx.behavior t.ctx with
    | Ctx.Honest ->
        Ctx.broadcast_replicas t.ctx
          ~bytes:(Message.Wire.propose (cfg t))
          (S_preprepare { view; seqno; batch })
    | Ctx.Silent | Ctx.Stop_proposing -> ()
    | Ctx.Keep_in_dark dark ->
        let dsts =
          List.init (n t) (fun i -> i)
          |> List.filter (fun i -> i <> Ctx.id t.ctx && not (List.mem i dark))
        in
        Ctx.broadcast_to t.ctx ~dsts
          ~bytes:(Message.Wire.propose (cfg t))
          (S_preprepare { view; seqno; batch })
    | Ctx.Equivocate ->
        (* Split proposal: the collector's n-share fast quorum and nf slow
           quorum ensure at most one half can ever commit; the other
           half's requests stall, watches fire, and the view change
           re-proposes whatever certificate survives. *)
        let me = Ctx.id t.ctx in
        let others =
          List.init (n t) (fun i -> i) |> List.filter (fun i -> i <> me)
        in
        let half = List.length others / 2 in
        let left = List.filteri (fun i _ -> i < half) others in
        let right = List.filteri (fun i _ -> i >= half) others in
        let forged =
          { batch with Message.digest = batch.Message.digest ^ "!equiv" }
        in
        let bytes = Message.Wire.propose (cfg t) in
        Ctx.broadcast_to t.ctx ~dsts:left ~bytes
          (S_preprepare { view; seqno; batch });
        Ctx.broadcast_to t.ctx ~dsts:right ~bytes
          (S_preprepare { view; seqno; batch = forged }));
    send_share t ~view ~seqno batch
  end


(* ------------------------------------------------------------------ *)
(* View change                                                         *)

(* The standard certificate-carrying new-view (the original's is "no less
   expensive than PBFT", Fig. 10 of the paper): re-propose every slot a
   certificate supports, null-fill gaps, and rotate primary, collector
   and executor together.

   Safety of the selection rule below:
   - a slow-path commit at (v, k, d) required nf SHARE2s, each sent by a
     replica that saw the phase-1 proof — so in any nf view-change
     summaries at least one honest replica lists (v, k, d) as certified;
   - a fast-path commit required shares from all n replicas, so every
     honest replica lists (v, k, d) as shared: at least f+1 of any nf
     summaries carry it, while conflicting claims for k come from at
     most f faulty ones. Picking (in order) the highest-view certified
     entry, then the shared digest with the most claims, therefore never
     drops a committed slot. *)

let inflight_entries t =
  Hashtbl.fold
    (fun key slot acc ->
      let seqno = slot_key_seqno key in
      match slot.batch with
      | Some batch when seqno > Exec.k_exec t.exec && slot.share_sent ->
          let e =
            { Message.e_seqno = seqno; e_view = slot_key_view key;
              e_batch = batch }
          in
          if slot.certified then (e :: fst acc, snd acc)
          else (fst acc, e :: snd acc)
      | Some _ | None -> acc)
    t.slots ([], [])

let my_vc_payload t ~from_view =
  let executed =
    Exec.executed_since t.exec (Exec.stable t.exec)
    |> List.map (fun (e_seqno, e_view, e_batch) ->
           { Message.e_seqno; e_view; e_batch })
  in
  let certified, shared = inflight_entries t in
  let by_seqno a b = compare a.Message.e_seqno b.Message.e_seqno in
  {
    from_view;
    exec_upto = Exec.k_exec t.exec;
    executed;
    certified = List.sort by_seqno certified;
    shared = List.sort by_seqno shared;
  }

(* Open the failover span on the first slot the view change blocks;
   [adopt] closes it with a "new_view" phase. *)
let halt t ~from_view =
  t.vc_phase_slot <- Exec.k_exec t.exec + 1;
  tr_phase t ~view:(from_view + 1) ~seqno:t.vc_phase_slot "view_change"

let adopt t ~new_view vcs =
  (* SBFT execution is proof-gated, so adoption only ever fast-forwards
     (no rollback): adopt the longest executed prefix, then re-run
     consensus in the new view for every slot a certificate supports. *)
  let best = V.longest ~by:(fun (p : vc_payload) -> p.exec_upto) vcs in
  let kmax = match best with Some p -> p.exec_upto | None -> -1 in
  V.adopt_in_order t.exec (match best with Some p -> p.executed | None -> []);
  (* Re-proposal selection above kmax: highest-view certified entry first,
     then the shared digest with the most matching claims (ties broken by
     view then digest, deterministically). *)
  let reproposals =
    V.highest_view ~above:kmax
      (List.map (fun ((_, p) : int * vc_payload) -> p.certified) vcs)
  in
  let shared_claims : (int, (string, int * Message.exec_entry) Hashtbl.t)
      Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun ((_, p) : int * vc_payload) ->
      List.iter
        (fun (e : Message.exec_entry) ->
          if
            e.Message.e_seqno > kmax
            && not (Hashtbl.mem reproposals e.Message.e_seqno)
          then begin
            let per_digest =
              match Hashtbl.find_opt shared_claims e.Message.e_seqno with
              | Some h -> h
              | None ->
                  let h = Hashtbl.create 4 in
                  Hashtbl.replace shared_claims e.Message.e_seqno h;
                  h
            in
            let key = e.Message.e_batch.Message.digest in
            let count =
              match Hashtbl.find_opt per_digest key with
              | Some (c, _) -> c
              | None -> 0
            in
            Hashtbl.replace per_digest key (count + 1, e)
          end)
        p.shared)
    vcs;
  Hashtbl.iter
    (fun seqno per_digest ->
      let best =
        Hashtbl.fold
          (fun d (c, e) acc ->
            match acc with
            | Some (bd, bc, (be : Message.exec_entry))
              when bc > c
                   || (bc = c && be.Message.e_view > e.Message.e_view)
                   || (bc = c && be.Message.e_view = e.Message.e_view && bd <= d)
              -> acc
            | _ -> Some (d, c, e))
          per_digest None
      in
      match best with
      | Some (_, _, e) -> Hashtbl.replace reproposals seqno e
      | None -> ())
    shared_claims;
  V.install t.vc ~new_view vcs;
  tr_phase t ~view:new_view ~seqno:t.vc_phase_slot "new_view";
  let max_reproposed =
    Hashtbl.fold (fun s _ acc -> max s acc) reproposals kmax
  in
  t.next_seqno <- max_reproposed + 1;
  Hashtbl.filter_map_inplace
    (fun key v -> if slot_key_view key < new_view then None else Some v)
    t.slots;
  Hashtbl.filter_map_inplace
    (fun key v -> if slot_key_view key < new_view then None else Some v)
    t.coll;
  (* Committed-but-unexecuted offers of the dead view are parked in the
     engine behind gaps that will never fill there; the new view re-runs
     consensus for them, so drop the stale offers. *)
  Exec.abandon_unexecuted t.exec;
  V.resume_backlog ~primary:(is_primary t) ~exec:t.exec ~pipeline:t.pipeline
    ~recovery:t.recovery (fun () ->
      (* Our first post-failover commits wait out the collector timer (the
         fast path needs all n shares, and somebody just failed); stale
         watch deadlines must not re-suspect during that window. *)
      Recovery.postpone_watches t.recovery;
      (* Gaps between kmax and the highest re-proposed slot get null
         batches: a slot no certificate supports can never close
         otherwise, and execution would park behind it forever. *)
      V.repropose ~name ~new_view ~kmax ~upto:max_reproposed reproposals
        t.pipeline ~propose:(fun (e : Message.exec_entry) ->
          Ctx.broadcast_replicas t.ctx
            ~bytes:(Message.Wire.propose (cfg t))
            (S_preprepare
               { view = new_view; seqno = e.e_seqno; batch = e.e_batch });
          send_share t ~view:new_view ~seqno:e.e_seqno e.e_batch));
  Hashtbl.reset t.retries;
  (* Executor failover: re-send the execution share of every executed
     slot still above the stable checkpoint to this view's executor, so
     it can aggregate f+1 and answer any client the failed executor left
     hanging. Slots already responded to get a duplicate aggregate — the
     hubs drop completed acks — and the window is bounded by checkpoint
     GC. *)
  let ex = executor_of t new_view in
  Hashtbl.fold (fun seqno (_, result) acc -> (seqno, result) :: acc)
    t.exec_results []
  |> List.sort compare
  |> List.iter (fun (seqno, result) ->
         if ex = Ctx.id t.ctx then on_exec_share t ~src:ex ~seqno ~result
         else
           Ctx.send_replica t.ctx ~dst:ex ~bytes:Message.Wire.vote
             (S_exec_share { seqno; result }));
  activate_pending_slots t

module Vc = V.Make (struct
  type nonrec replica = replica
  type cert = vc_payload

  let state t = t.vc
  let from_view (p : vc_payload) = p.from_view

  let size (p : vc_payload) =
    List.length p.executed + List.length p.certified + List.length p.shared

  let valid (p : vc_payload) =
    V.entries_consecutive ~upto:p.exec_upto p.executed
  let summarize = my_vc_payload
  let halt = halt
  let adopt = adopt
end)

let force_suspect = Vc.force_suspect

(* The current executor answers a retried-but-executed request again:
   the aggregate response is a single message, so one lossy link must
   not strand the client until a view change. *)
let re_respond t (req : Message.request) =
  let slot_key = (req.Message.hub lsl 19) lor req.Message.client in
  match Hashtbl.find_opt t.reply_cache slot_key with
  | Some (rid, seqno, result) when rid = req.Message.rid ->
      (* We answered this exact request before: replay the single ack
         from the cache. Works even after checkpoint GC dropped the
         batch. *)
      let config = cfg t in
      Ctx.send_hub t.ctx ~hub:req.Message.hub
        ~bytes:(Message.Wire.response config ~per_reqs:1)
        (Message.Exec_response
           {
             view = t.vc.view;
             seqno;
             replica = Ctx.id t.ctx;
             batch_digest = "";
             result_digest = result;
             acks = [ (req.Message.client, req.Message.rid) ];
           })
  | _ ->
      (* Never answered by this replica (e.g. we just inherited the
         executor role): rebuild the full aggregate from our own
         execution results if the slot is still retained. *)
      let key = Message.request_key req in
      Hashtbl.iter
        (fun seqno ((batch : Message.batch), result) ->
          if
            Array.exists (fun r -> Message.request_key r = key) batch.Message.reqs
          then begin
            Hashtbl.remove t.exec_proof_sent seqno;
            executor_respond t ~seqno ~result
          end)
        (Hashtbl.copy t.exec_results)

let on_client_request t (req : Message.request) =
  if Exec.was_executed t.exec req then begin
    (* Executed, yet the client is still retrying: the aggregate
       response was lost, or the executor of the view that executed it
       failed before responding — the one failure the consensus path
       cannot see, because execution already happened everywhere. The
       live executor re-responds; persistent retries rotate the view,
       and with it the executor role. *)
    if not (in_view_change t) then begin
      if is_executor t then re_respond t req;
      (* Client retransmissions back off exponentially, so we may only
         ever see this one retry: instead of waiting for a second,
         schedule a local progress check. The client is closed-loop —
         if no higher rid from it executes by the deadline, it is still
         unanswered and the view (hence the executor role) must
         rotate. *)
      let key = Message.request_key req in
      if not (Hashtbl.mem t.retries key) then begin
        Hashtbl.replace t.retries key (Ctx.now t.ctx);
        let cslot = (req.Message.hub lsl 19) lor req.Message.client in
        let vw = t.vc.view in
        Ctx.schedule t.ctx
          ~delay:(2.0 *. (cfg t).Config.view_timeout)
          (fun () ->
            Hashtbl.remove t.retries key;
            if Ctx.alive t.ctx && not (in_view_change t) && t.vc.view = vw then
              match Hashtbl.find_opt t.exec_rids cslot with
              | Some best when best > req.Message.rid -> ()
              | Some _ | None -> Vc.initiate_view_change t ~from_view:t.vc.view)
      end
    end
  end
  else if not (in_view_change t) && is_primary t then
    Pipeline.add_request t.pipeline req
  else Recovery.watch t.recovery req

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)

(* Checkpoint GC of the per-slot tables. *)
let on_stable t seqno =
  Hashtbl.filter_map_inplace
    (fun key v -> if slot_key_seqno key <= seqno then None else Some v)
    t.slots;
  Hashtbl.filter_map_inplace
    (fun key v -> if slot_key_seqno key <= seqno then None else Some v)
    t.coll;
  (* The response machinery lags one checkpoint period behind the
     stable point: a period-boundary seqno broadcasts its
     checkpoint votes and its execution shares at the same
     instant, and when the nf-th vote outruns the (f+1)-th share
     the slot would otherwise be collected before the executor
     can aggregate and answer the clients. *)
  let keep = seqno - (cfg t).Config.checkpoint_period in
  Hashtbl.filter_map_inplace
    (fun s v -> if s <= keep then None else Some v)
    t.exec_proof_sent;
  Hashtbl.filter_map_inplace
    (fun s v -> if s <= keep then None else Some v)
    t.exec_results;
  Hashtbl.filter_map_inplace
    (fun s v -> if s <= keep then None else Some v)
    t.exec_shares

let create_replica ctx =
  (* The components' callbacks reach the replica through [self], set as
     soon as the record exists, so each component is built once. *)
  let self = ref None in
  let me () = Option.get !self in
  let exec =
    (* Replicas do not answer clients directly: the executor aggregates
       (paper §IV-A). *)
    Exec.create ~ctx ~respond:false
      ~on_executed:(fun ~seqno ~batch ~result ->
        on_executed (me ()) ~seqno ~batch ~result)
      ()
  in
  let t =
    {
      ctx;
      exec;
      pipeline =
        Pipeline.create ~ctx ~on_batch:(fun batch -> propose_batch (me ()) batch) ();
      recovery =
        Recovery.create ~ctx ~exec
          ~primary:(fun () -> let t = me () in primary_of t t.vc.view)
          ~active:(fun () -> not (in_view_change (me ())))
          ~on_suspect:(fun () ->
            let t = me () in
            Vc.initiate_view_change t ~from_view:t.vc.view)
          ~on_stable:(fun seqno -> on_stable (me ()) seqno)
          ();
      slots = Hashtbl.create 1024;
      coll = Hashtbl.create 64;
      exec_shares = Hashtbl.create 64;
      exec_results = Hashtbl.create 64;
      exec_proof_sent = Hashtbl.create 64;
      reply_cache = Hashtbl.create 16;
      exec_rids = Hashtbl.create 16;
      retries = Hashtbl.create 64;
      next_seqno = 0;
      vc = V.create ctx ~name;
      vc_phase_slot = 0;
    }
  in
  self := Some t;
  t

let start_replica t = Recovery.start t.recovery

let on_message t ~src msg =
  if Ctx.alive t.ctx && not (Recovery.on_message t.recovery ~src msg) then
    match msg with
    | Message.Client_request req -> on_client_request t req
    | Message.Client_request_bundle reqs -> List.iter (on_client_request t) reqs
    | Message.Client_forward req -> on_client_request t req
    | S_preprepare { view; seqno; batch } ->
        V.request_nv t.vc ~src ~view;
        on_preprepare t ~src ~view ~seqno batch
    | S_share { view; seqno; digest } -> on_share t ~src ~view ~seqno ~digest
    | S_commit_proof { view; seqno; digest; full } ->
        V.request_nv t.vc ~src ~view;
        on_commit_proof t ~src ~view ~seqno ~digest ~full
    | S_share2 { view; seqno; digest } -> on_share2 t ~src ~view ~seqno ~digest
    | S_final_proof { view; seqno; digest } ->
        V.request_nv t.vc ~src ~view;
        on_final_proof t ~src ~view ~seqno ~digest
    | S_exec_share { seqno; result } -> on_exec_share t ~src ~seqno ~result
    | S_exec_proof _ -> ()
    | msg -> Vc.on_message t ~src msg

let receive_cost ~src config cost msg =
  match R.Protocol_intf.client_receive_cost ~src config cost msg with
  | Some c -> c
  | None -> (
      let base = cost.Cost.msg_in in
      match msg with
      | S_preprepare _ -> base +. cost.Cost.mac_verify
      | S_share _ | S_share2 _ | S_exec_share _ ->
          base +. cost.Cost.mac_verify
      | S_commit_proof _ | S_final_proof _ | S_exec_proof _ ->
          base +. cost.Cost.mac_verify
      | Vc.Vc_request _ | Vc.Nv_propose _ | V.Nv_request _ ->
          (* View-change summaries are forwarded, hence signed. *)
          base +. cost.Cost.ds_verify
      | _ -> base)

let hub_hooks _config =
  {
    (* The executor's aggregate carries a threshold signature: a single
       response suffices. *)
    Hub.quorum = 1;
    send_mode = Hub.To_primary;
    on_timeout = None;
    on_message = None;
  }
