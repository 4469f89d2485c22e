module Block = Poe_ledger.Block

type record = { view : int; batch : Message.batch; result : string }

type t = {
  ctx : Replica_ctx.t;
  on_executed : (seqno:int -> batch:Message.batch -> result:string -> unit) option;
  respond : bool;
  ready : (int, int * Message.batch * Block.proof) Hashtbl.t;
      (* offered but not yet scheduled: seqno -> (view, batch, proof) *)
  executed : (int, record) Hashtbl.t; (* retained executed batches *)
  exec_keys : Rid_table.t; (* requests of live executed batches *)
  mutable k_exec : int;       (* last finished *)
  mutable k_sched : int;      (* last submitted to the execute lane *)
  mutable stable : int;
  mutable epoch : int;        (* bumped on rollback to invalidate in-flight jobs *)
}

let create ~ctx ?on_executed ?(respond = true) () =
  {
    ctx;
    on_executed;
    respond;
    ready = Hashtbl.create 256;
    executed = Hashtbl.create 1024;
    exec_keys = Rid_table.create (Replica_ctx.config ctx);
    k_exec = -1;
    k_sched = -1;
    stable = -1;
    epoch = 0;
  }

let k_exec t = t.k_exec

let executed_batch t seqno =
  Option.map (fun r -> r.batch) (Hashtbl.find_opt t.executed seqno)

let executed_result t seqno =
  Option.map (fun r -> r.result) (Hashtbl.find_opt t.executed seqno)

let executed_since t seqno =
  let rec collect acc k =
    match Hashtbl.find_opt t.executed k with
    | Some r -> collect ((k, r.view, r.batch) :: acc) (k + 1)
    | None -> List.rev acc
  in
  collect [] (max (seqno + 1) (t.stable + 1))

let was_executed t req = Rid_table.mem t.exec_keys req

let remember t seqno view batch result =
  Hashtbl.replace t.executed seqno { view; batch; result };
  Array.iter (Rid_table.add t.exec_keys) batch.Message.reqs

(* The acks of [reqs] per client machine: [(hub, acks)] in the order the
   batch first names each hub, every hub's acks newest first. *)
let acks_per_hub ~n_hubs (reqs : Message.request array) =
  let by_hub = Array.make n_hubs [] and hubs = ref [] in
  Array.iter
    (fun (r : Message.request) ->
      let acks = by_hub.(r.hub) in
      if acks == [] then hubs := r.hub :: !hubs;
      by_hub.(r.hub) <- (r.client, r.rid) :: acks)
    reqs;
  List.rev_map (fun hub -> (hub, by_hub.(hub))) !hubs

let rec respond t cfg ~view ~seqno ~batch_digest ~result_digest = function
  | [] -> ()
  | (hub, acks) :: rest ->
      let bytes = Message.Wire.response cfg ~per_reqs:(List.length acks) in
      Replica_ctx.send_hub t.ctx ~hub ~bytes
        (Message.Exec_response
           {
             view;
             seqno;
             replica = Replica_ctx.id t.ctx;
             batch_digest;
             result_digest;
             acks;
           });
      respond t cfg ~view ~seqno ~batch_digest ~result_digest rest

(* Coalesce the per-request INFORMs into one wire message per client
   machine, preserving byte volume (see DESIGN.md). The ack lists are
   built once per batch, by the first replica to answer for it, and the
   other replicas send the same lists, so a batch costs each replica only
   its messages. *)
let send_responses t ~view ~seqno ~(batch : Message.batch) ~result_digest =
  let cfg = Replica_ctx.config t.ctx in
  if batch.acks == [] then
    batch.acks <- acks_per_hub ~n_hubs:cfg.Config.n_hubs batch.reqs;
  respond t cfg ~view ~seqno ~batch_digest:batch.digest ~result_digest
    batch.acks

let finish t ~view ~seqno ~batch ~proof =
  let result_digest = Replica_ctx.execute_batch t.ctx ~view ~seqno batch ~proof in
  Poe_prof.Prof.(bump ix_batches_executed);
  Poe_prof.Prof.(bump_by ix_txns_executed (Array.length batch.Message.reqs));
  if Poe_obs.Trace.enabled () then begin
    (* The per-replica executed mark carries the batch and result digests:
       this is what lets the forensic explainer find the exact divergence
       point between two replicas' histories from the trace alone. *)
    Poe_obs.Trace.instant ~ts:(Replica_ctx.now t.ctx)
      ~node:(Replica_ctx.id t.ctx) ~cat:"exec" ~view ~seqno
      ~args:
        [
          ("digest", Poe_obs.Trace.S batch.Message.digest);
          ("result", Poe_obs.Trace.S result_digest);
          ("txns", Poe_obs.Trace.I (Array.length batch.Message.reqs));
        ]
      "executed";
    (* Close the consensus-slot span opened by the protocol's first phase
       event; its duration is the slot's propose-to-executed latency. *)
    match
      Poe_obs.Trace.slot_done ~ts:(Replica_ctx.now t.ctx)
        ~node:(Replica_ctx.id t.ctx) ~view ~seqno
    with
    | Some dur -> Poe_obs.Metrics.hobs "exec.slot_latency" dur
    | None -> ()
  end;
  (* One designated observer replica counts the cluster's consensus
     decisions: a plain backup (never the primary of view 0, never SBFT's
     collector, never the replica the failure experiments crash), so its
     execution pace tracks the cluster rather than the most-loaded node.
     For n = 4 this is replica 2; replica 0 observes only when it is the
     whole story (n < 4 cannot happen). *)
  let observer = max 2 (Replica_ctx.(config t.ctx).Config.n - 2) in
  if Replica_ctx.id t.ctx = observer then
    Stats.record_consensus (Replica_ctx.stats t.ctx) ~now:(Replica_ctx.now t.ctx);
  t.k_exec <- seqno;
  remember t seqno view batch result_digest;
  if t.respond then send_responses t ~view ~seqno ~batch ~result_digest;
  match t.on_executed with
  | Some f -> f ~seqno ~batch ~result:result_digest
  | None -> ()

(* Submit every newly-contiguous ready batch to the (single-lane, hence
   FIFO) execute thread. The CPU charge covers the paper's per-transaction
   execution work; zero-payload runs still execute "dummy instructions"
   (§IV-E), so the charge does not depend on payload. *)
let rec pump t =
  let next = t.k_sched + 1 in
  match Hashtbl.find_opt t.ready next with
  | None -> ()
  | Some (view, batch, proof) ->
      Hashtbl.remove t.ready next;
      t.k_sched <- next;
      if Poe_obs.Trace.enabled () then
        Poe_obs.Trace.phase ~ts:(Replica_ctx.now t.ctx)
          ~node:(Replica_ctx.id t.ctx) ~cat:"exec" ~view ~seqno:next "execute";
      let cost = Replica_ctx.cost t.ctx in
      let cfg = Replica_ctx.config t.ctx in
      (* Execution plus signing the per-request INFORMs (the execute
         thread creates them, Fig. 6) — under digital signatures this is
         what drags the Fig. 8 "ED" configuration down. In the
         threshold-signature configurations INFORMs still carry plain MACs
         (paper §II-E optimization 2), not shares. *)
      let response_sign =
        match cfg.Config.replica_scheme with
        | Config.Auth_threshold -> cost.Cost.mac_sign
        | (Config.Auth_none | Config.Auth_mac | Config.Auth_digital) as s ->
            Cost.auth_sign cost s
      in
      let per_txn =
        cost.Cost.exec_per_txn +. if t.respond then response_sign else 0.0
      in
      let cpu = float_of_int (Array.length batch.Message.reqs) *. per_txn in
      let epoch = t.epoch in
      Replica_ctx.work t.ctx Server.Execute ~cost:cpu (fun () ->
          if epoch = t.epoch then begin
            finish t ~view ~seqno:next ~batch ~proof;
            pump t
          end);
      (* With one execute lane the jobs run in order anyway, but submitting
         eagerly keeps the lane busy without waiting for callbacks. *)
      pump t

let offer t ~seqno ~view ~batch ~proof =
  if seqno > t.k_sched && not (Hashtbl.mem t.ready seqno) then begin
    Hashtbl.replace t.ready seqno (view, batch, proof);
    pump t
  end

let rollback_to t ~seqno =
  let reverted = Replica_ctx.rollback_to t.ctx ~seqno in
  Poe_prof.Prof.(bump ix_rollbacks);
  if Poe_obs.Trace.enabled () then
    Poe_obs.Trace.instant ~ts:(Replica_ctx.now t.ctx)
      ~node:(Replica_ctx.id t.ctx) ~cat:"exec" ~seqno
      ~args:[ ("reverted", Poe_obs.Trace.I reverted) ]
      "rollback";
  Hashtbl.filter_map_inplace
    (fun k (r : record) ->
      if k > seqno then begin
        Array.iter (Rid_table.remove t.exec_keys) r.batch.Message.reqs;
        None
      end
      else Some r)
    t.executed;
  Hashtbl.reset t.ready;
  t.k_exec <- min t.k_exec seqno;
  t.k_sched <- t.k_exec;
  t.epoch <- t.epoch + 1;
  reverted

(* Abandon every decision that has not yet applied to state: batches
   parked in [ready] waiting for a gap, and jobs still queued on the
   execute lane. A view change must call this even when nothing rolls
   back — a batch certified in the dead view but stalled behind a lost
   predecessor is NOT part of the adopted prefix, and letting it execute
   once the new view fills the gap would double-execute its requests
   (the new primary re-proposes them from its watch list). *)
let abandon_unexecuted t =
  Poe_prof.Prof.(bump ix_slots_abandoned);
  if Poe_obs.Trace.enabled () && (Hashtbl.length t.ready > 0 || t.k_sched > t.k_exec)
  then
    Poe_obs.Trace.instant ~ts:(Replica_ctx.now t.ctx)
      ~node:(Replica_ctx.id t.ctx) ~cat:"exec"
      ~args:
        [
          ("parked", Poe_obs.Trace.I (Hashtbl.length t.ready));
          ("in_flight", Poe_obs.Trace.I (t.k_sched - t.k_exec));
        ]
      "abandon";
  Hashtbl.reset t.ready;
  t.k_sched <- t.k_exec;
  t.epoch <- t.epoch + 1

let force_adopt t ~seqno ~view ~batch ~proof =
  (* A pump job for this seqno may already be in flight on the execute
     lane (k_sched has passed it): executing here too would double-apply
     the batch, so leave it to the lane. *)
  if seqno <= t.k_sched then ()
  else if seqno = t.k_exec + 1 then begin
    t.k_sched <- seqno;
    finish t ~view ~seqno ~batch ~proof
  end
  else invalid_arg "Exec_engine.force_adopt: gap in adopted prefix"

let adopt_snapshot t ~upto ~rows ~blocks =
  if upto > t.k_exec then begin
    Replica_ctx.install_snapshot t.ctx ~upto ~rows ~blocks;
    Hashtbl.reset t.ready;
    Hashtbl.reset t.executed;
    Rid_table.reset t.exec_keys;
    t.k_exec <- upto;
    t.k_sched <- upto;
    t.stable <- max t.stable upto;
    t.epoch <- t.epoch + 1
  end

(* Checkpoint GC drops the retained batches but keeps [exec_keys]: a
   request stays deduplicable forever, so a client retransmission that
   straggles in after its batch was garbage-collected (long partition,
   heavy bursty loss) cannot be executed a second time. Keys are only
   removed on rollback, where re-execution is legitimate. Kept as a
   [Rid_table], this costs an interval per client rather than an entry
   per request. *)
let gc_below t ~seqno =
  Hashtbl.filter_map_inplace
    (fun k (r : record) -> if k <= seqno then None else Some r)
    t.executed

let retained t = Hashtbl.length t.executed

let stable t = t.stable
let set_stable t s = t.stable <- max t.stable s
