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

let name = "zyzzyva"

module Trace = Poe_obs.Trace

(* Replica-exchanged view-change summary: this replica's speculative
   history above its stable checkpoint, plus the highest slot it acked a
   client commit certificate for. [exec_upto - List.length entries] is
   therefore the sender's stable checkpoint (its history starts right
   above it). *)
type vc_payload = {
  from_view : int;
  exec_upto : int;
  cc_upto : int;  (** highest seqno covered by a commit cert we acked *)
  entries : Message.exec_entry list;
}

type Message.t +=
  | Order_req of { view : int; seqno : int; batch : Message.batch }
      (** primary → all: the only inter-replica message of the fast path *)
  | Commit_cert of {
      seqno : int;
      digest : string;
      acks : (int * int) list;  (** (client, rid) being committed *)
      hub : int;
    }
      (** client → all: ≥ nf matching speculative responses, please commit *)
  | Local_commit of {
      seqno : int;
      digest : string;
      acks : (int * int) list;
      replica : int;
    }
      (** replica → client: acknowledgement of a commit certificate *)
  | Z_pom of { view : int }
      (** client → all: proof of misbehavior — two replicas answered the
          same slot of [view] with different results *)

type replica = {
  ctx : Ctx.t;
  exec : Exec.t;
  pipeline : Pipeline.t;
  recovery : Recovery.t;
  mutable next_seqno : int;
  vc : vc_payload V.t;
  mutable cc_upto : int;  (* highest seqno we Local_commit-acked *)
  mutable vc_phase_slot : int;
      (* slot carrying the open "view_change" phase span *)
  pending : (int, Message.batch) Hashtbl.t;
      (* order-reqs for a future view, keyed (view lsl 40) lor seqno;
         replayed when the view activates *)
  retries : (int, float) Hashtbl.t;
      (* request_key -> first time a client retried a request we had
         already executed speculatively (divergence detector) *)
}

let ctx t = t.ctx
let current_view t = t.vc.view
let view_of = current_view
let k_exec t = Exec.k_exec t.exec
let cfg t = Ctx.config t.ctx
let fq t = Config.f (cfg t)
let primary_of t view = Config.primary_of_view (cfg t) view
let is_primary t = Ctx.is_primary_of t.ctx t.vc.view
let active_in t view = V.active_in t.vc view
let in_view_change t = V.in_view_change t.vc

let stable_seqno t = Exec.stable t.exec

let slot_key ~view ~seqno = (view lsl 40) lor seqno
let slot_key_view key = key lsr 40
let slot_key_seqno key = key land ((1 lsl 40) - 1)

(* Speculation has a single inter-replica phase: the slot opens at the
   order-req ("propose") and closes when Exec_engine executes it. During
   failover the blocked slot additionally carries "view_change" /
   "new_view" phases, so `poe_sim analyze` attributes the failover
   latency. *)
let tr_phase t ~view ~seqno phase =
  Ctx.trace_phase t.ctx ~cat:name ~view ~seqno phase

(* ------------------------------------------------------------------ *)
(* Normal case: speculative execution                                  *)

let speculate t ~view ~seqno (batch : Message.batch) =
  tr_phase t ~view ~seqno "propose";
  Exec.offer t.exec ~seqno ~view ~batch ~proof:Block.No_proof

let propose_batch t (batch : Message.batch) =
  if Ctx.alive t.ctx && not (in_view_change t) && is_primary t then begin
    let seqno = t.next_seqno in
    t.next_seqno <- seqno + 1;
    let view = t.vc.view in
    tr_phase t ~view ~seqno "propose";
    (match Ctx.behavior t.ctx with
    | Ctx.Honest ->
        Ctx.broadcast_replicas t.ctx
          ~bytes:(Message.Wire.propose (cfg t))
          (Order_req { view; seqno; batch })
    | Ctx.Silent | Ctx.Stop_proposing -> ()
    | Ctx.Keep_in_dark dark ->
        let dsts =
          List.init (cfg t).Config.n (fun i -> i)
          |> List.filter (fun i -> i <> Ctx.id t.ctx && not (List.mem i dark))
        in
        Ctx.broadcast_to t.ctx ~dsts
          ~bytes:(Message.Wire.propose (cfg t))
          (Order_req { view; seqno; batch })
    | Ctx.Equivocate ->
        (* Speculative execution makes equivocation visible to clients as
           non-matching responses; they fall back to the commit path and
           fail to gather nf. The retry-persistence detector below then
           drives a view change whose history adoption reconciles the
           diverged speculative suffixes. *)
        let n = (cfg t).Config.n in
        let me = Ctx.id t.ctx in
        let others = List.init n (fun i -> i) |> List.filter (fun i -> i <> me) in
        let half = List.length others / 2 in
        let left = List.filteri (fun i _ -> i < half) others in
        let right = List.filteri (fun i _ -> i >= half) others in
        let forged =
          { batch with Message.digest = batch.Message.digest ^ "!equiv" }
        in
        let bytes = Message.Wire.propose (cfg t) in
        Ctx.broadcast_to t.ctx ~dsts:left ~bytes
          (Order_req { view; seqno; batch });
        Ctx.broadcast_to t.ctx ~dsts:right ~bytes
          (Order_req { view; seqno; batch = forged }));
    Exec.offer t.exec ~seqno ~view ~batch ~proof:Block.No_proof
  end

(* ------------------------------------------------------------------ *)
(* View change                                                         *)

(* Zyzzyva's published view change is unsafe (Abraham et al. 2017;
   "Revisiting EZBFT" catalogs the same traps for its successor): adopting
   the single longest local history lets a faulty new primary — or an
   unlucky choice of certificate set — drop a request some client already
   completed, or keep a speculative suffix no quorum ever matched on.
   Ours adopts per-slot instead:

   - a slot is adopted when f+1 of the nf exchanged histories carry the
     same batch for it (f+1 + f+1 > nf, so at most one batch can qualify
     — and any fast-path-completed slot qualifies, since all honest
     replicas executed it identically);
   - slow-path completions (nf LOCAL-COMMITs) are covered by [cc_upto]:
     the adopted prefix always extends at least to the highest commit
     certificate any summary acked, taking the acker's own entries (the
     certificate proves nf replicas matched its results);
   - everything beyond the adopted prefix is uncertified speculation and
     is rolled back through {!Exec_engine} — clamped at the stable
     checkpoint, with certified-but-unexecuted slots abandoned (the PoE
     traps of PR 2). *)

let my_vc_payload t ~from_view =
  let entries =
    Exec.executed_since t.exec (Exec.stable t.exec)
    |> List.map (fun (e_seqno, e_view, e_batch) ->
           { Message.e_seqno; e_view; e_batch })
  in
  {
    from_view;
    exec_upto = Exec.k_exec t.exec;
    cc_upto = min t.cc_upto (Exec.k_exec t.exec);
    entries;
  }

(* Open the failover span on the first slot the view change blocks;
   [adopt] closes it with a "new_view" phase. *)
let halt t ~from_view =
  t.vc_phase_slot <- Exec.k_exec t.exec + 1;
  tr_phase t ~view:(from_view + 1) ~seqno:t.vc_phase_slot "view_change"

let adopt t ~new_view vcs =
  let floor = Exec.stable t.exec in
  (* The summary whose acked commit certificate reaches highest: its own
     entries are adopted through [kcc] when per-slot votes fall short. *)
  let cc_best = V.longest ~by:(fun (p : vc_payload) -> p.cc_upto) vcs in
  let kcc = match cc_best with Some p -> p.cc_upto | None -> -1 in
  (* Per-slot support: an explicit matching entry, or — for a summary
     whose history starts above the slot — the sender's stable checkpoint
     already covers it (implicit support for whichever batch wins). *)
  let hstart (p : vc_payload) = p.exec_upto - List.length p.entries in
  (* Highest stable checkpoint attested by any summary in the certificate
     set (a summary's entries run from its sender's stable + 1 through its
     exec_upto, so [hstart] *is* that sender's stable checkpoint).  A
     stable checkpoint is nf-certified
     and final: slots at or below it must never be rolled back or
     re-proposed with fresh content, even when no summary still carries
     their digests — otherwise replicas that hold the slot below their own
     stable keep the old batch while everyone else re-executes a new one,
     splitting the certified prefix.  Replicas that executed this far keep
     their local content; stragglers wait for state transfer. *)
  let cert_floor =
    List.fold_left
      (fun acc ((_, p) : int * vc_payload) -> max acc (hstart p))
      (-1) vcs
  in
  let floor = max floor (min cert_floor (Exec.k_exec t.exec)) in
  let entry_at (p : vc_payload) k =
    List.find_opt (fun (e : Message.exec_entry) -> e.Message.e_seqno = k)
      p.entries
  in
  let support k =
    let wild = ref 0 in
    let counts : (string, int * Message.exec_entry) Hashtbl.t =
      Hashtbl.create 4
    in
    List.iter
      (fun ((_, p) : int * vc_payload) ->
        if hstart p >= k then incr wild
        else
          match entry_at p k with
          | Some e ->
              let d = e.Message.e_batch.Message.digest in
              let n = match Hashtbl.find_opt counts d with
                | Some (n, _) -> n
                | None -> 0
              in
              Hashtbl.replace counts d (n + 1, e)
          | None -> ())
      vcs;
    let best =
      Hashtbl.fold
        (fun d (n, e) acc ->
          match acc with
          | Some (bd, bn, _) when bn > n || (bn = n && bd <= d) -> acc
          | _ -> Some (d, n, e))
        counts None
    in
    (!wild, best)
  in
  let adopted = ref [] in
  let stop = ref false in
  let k = ref (floor + 1) in
  while not !stop do
    let wild, best = support !k in
    (match best with
    | Some (_, explicit, e) when explicit + wild >= fq t + 1 ->
        adopted := e :: !adopted
    | _ when !k <= kcc -> (
        match cc_best with
        | Some p -> (
            match entry_at p !k with
            | Some e -> adopted := e :: !adopted
            | None ->
                (* Below the certificate owner's own stable checkpoint:
                   the batch is garbage-collected out of its summary;
                   state transfer catches stragglers up instead. *)
                stop := true)
        | None -> stop := true)
    | _ -> stop := true);
    if not !stop then incr k
  done;
  let adopted = List.rev !adopted in
  let kadopt =
    match List.rev adopted with
    | (e : Message.exec_entry) :: _ -> e.Message.e_seqno
    | [] -> floor
  in
  (* Uncertified speculative suffix: roll it back — never past the stable
     checkpoint (nf-certified, final) — with certified-but-unexecuted
     slots of the dead view abandoned, then re-execute from the first
     divergence. *)
  V.reconcile t.exec ~floor ~upto:kadopt adopted;
  V.install t.vc ~new_view vcs;
  tr_phase t ~view:new_view ~seqno:t.vc_phase_slot "new_view";
  Hashtbl.reset t.retries;
  (* Never re-propose into the certified prefix: a new primary that is
     itself behind [cert_floor] leaves the gap for state transfer rather
     than filling certified slots with fresh batches. *)
  t.next_seqno <-
    max (kadopt + 1) (max (cert_floor + 1) (Exec.k_exec t.exec + 1));
  (* Replay order-reqs that raced ahead of this NV-PROPOSE; drop stashes
     of dead views. *)
  let stashed = Hashtbl.fold (fun key b acc -> (key, b) :: acc) t.pending [] in
  List.iter
    (fun (key, batch) ->
      Hashtbl.remove t.pending key;
      if slot_key_view key = new_view then
        speculate t ~view:new_view ~seqno:(slot_key_seqno key) batch)
    (List.sort compare stashed);
  (* Dedup against the cluster's decided prefix, not just local execution:
     every completed request appears in the adopted union of any nf
     summaries. *)
  V.resume_backlog ~primary:(is_primary t) ~exec:t.exec ~pipeline:t.pipeline
    ~recovery:t.recovery (fun () ->
      List.iter
        (fun ((_, p) : int * vc_payload) -> V.claim t.pipeline p.entries)
        vcs)

module Vc = V.Make (struct
  type nonrec replica = replica
  type cert = vc_payload

  let state t = t.vc
  let from_view (p : vc_payload) = p.from_view
  let size (p : vc_payload) = List.length p.entries

  let valid (p : vc_payload) =
    V.entries_consecutive ~upto:p.exec_upto p.entries
    && p.cc_upto <= p.exec_upto

  let summarize = my_vc_payload
  let halt = halt
  let adopt = adopt
end)

let force_suspect = Vc.force_suspect

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)

let on_order_req t ~src ~view ~seqno (batch : Message.batch) =
  if
    view >= t.vc.view
    && src = primary_of t view
    && not (Ctx.is_primary_of t.ctx view)
  then begin
    V.request_nv t.vc ~src ~view;
    if active_in t view then begin
      let c = Ctx.cost t.ctx in
      Ctx.work t.ctx Server.Worker
        ~cost:(Cost.hash_cost c ~bytes:(Message.Wire.propose (cfg t)))
        (fun () -> speculate t ~view ~seqno batch)
    end
    else if view > t.vc.view then
      (* Racing ahead of the NV-PROPOSE that installs [view]: stash and
         replay on activation. (Orders for the *current* view while it is
         being changed are dropped — that view is dying.) *)
      Hashtbl.replace t.pending (slot_key ~view ~seqno) batch
  end

let on_commit_cert t ~seqno ~digest ~acks ~hub =
  (* Acknowledge iff our speculative history agrees with the certificate
     (the client collected matching speculative responses, so the digest is
     the execution-result digest from our INFORM). *)
  let agrees =
    match Exec.executed_result t.exec seqno with
    | Some r -> String.equal r digest
    | None ->
        (* Below the stable checkpoint the record is garbage-collected, but
           a checkpointed slot is agreed by nf replicas — strictly stronger
           than a local commit. *)
        seqno <= Exec.stable t.exec
  in
  if agrees then begin
    if Trace.enabled () then
      Trace.instant ~ts:(Ctx.now t.ctx) ~node:(Ctx.id t.ctx) ~cat:name ~seqno
        "commit_cert";
    Poe_prof.Prof.(bump ix_commit_certs);
    t.cc_upto <- max t.cc_upto seqno;
    Ctx.send_hub t.ctx ~hub ~bytes:Message.Wire.vote
      (Local_commit { seqno; digest; acks; replica = Ctx.id t.ctx })
  end

(* Zyzzyva's proof of misbehavior: replicas that executed the same history
   answer a slot identically, so two different results for one slot of
   [view] mean that view's speculative histories split — an equivocating
   primary sent different order-reqs, or a replica kept a suffix the last
   view change should have replaced. No quorum of matching responses or
   checkpoint votes can form across the split, and only a view change
   reconciles it, so start one at once instead of after the clients'
   retry backoff. *)
let on_pom t ~view =
  if not (in_view_change t) && view = t.vc.view then
    Vc.initiate_view_change t ~from_view:view

let on_client_request t (req : Message.request) =
  if Exec.was_executed t.exec req then begin
    (* Executed here, yet the client still retries: with an equivocating
       primary every replica executes *something* for the request, so
       watch-based suspicion never arms — persistent retries are the only
       local symptom that no quorum of matching responses exists. One
       retry is routine (a forward can race our response); a retry still
       recurring a view-timeout later is suspicious. *)
    if not (in_view_change t) then begin
      let key = Message.request_key req in
      let now = Ctx.now t.ctx in
      match Hashtbl.find_opt t.retries key with
      | None -> Hashtbl.replace t.retries key now
      | Some first when now -. first >= (cfg t).Config.view_timeout ->
          Hashtbl.remove t.retries key;
          Vc.initiate_view_change t ~from_view:t.vc.view
      | Some _ -> ()
    end
  end
  else if not (in_view_change t) && is_primary t then
    Pipeline.add_request t.pipeline req
  else Recovery.watch t.recovery req

let on_executed t ~seqno ~batch =
  if is_primary t then Pipeline.seqno_closed t.pipeline;
  Recovery.note_executed t.recovery ~seqno ~batch

let create_replica ctx =
  (* The components' callbacks reach the replica through [self], set as
     soon as the record exists, so each component is built once. *)
  let self = ref None in
  let me () = Option.get !self in
  let exec =
    Exec.create ~ctx
      ~on_executed:(fun ~seqno ~batch ~result:_ ->
        on_executed (me ()) ~seqno ~batch)
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
          ();
      next_seqno = 0;
      vc = V.create ctx ~name;
      cc_upto = -1;
      vc_phase_slot = 0;
      pending = Hashtbl.create 64;
      retries = Hashtbl.create 256;
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
    | Order_req { view; seqno; batch } -> on_order_req t ~src ~view ~seqno batch
    | Commit_cert { seqno; digest; acks; hub } ->
        on_commit_cert t ~seqno ~digest ~acks ~hub
    | Z_pom { view } -> on_pom t ~view
    | msg -> Vc.on_message t ~src msg

let receive_cost ~src config cost msg =
  match R.Protocol_intf.client_receive_cost ~src config cost msg with
  | Some c -> c
  | None -> (
      let base = cost.Cost.msg_in in
      match msg with
      | Order_req _ ->
          base +. Cost.auth_verify cost config.Config.replica_scheme
      | Commit_cert _ ->
          (* The slow path gives up batching: each per-request certificate
             carries 2f+1 response signatures the replica must verify —
             this, not the extra round trip, is what collapses Zyzzyva's
             throughput under a single failure (§IV-D). *)
          base
          +. (float_of_int ((2 * Config.f config) + 1) *. cost.Cost.ds_verify)
      | Vc.Vc_request _ | Vc.Nv_propose _ | V.Nv_request _ | Z_pom _ ->
          (* History certificates are forwarded, hence signed; a proof of
             misbehavior carries the signed responses. *)
          base +. cost.Cost.ds_verify
      | _ -> base)

(* The view of a slot for which two replicas reported different results. *)
let conflicting_view (rs : Hub.request_state) =
  List.find_map
    (fun (_, (view, seqno, digest)) ->
      if
        List.exists
          (fun (_, (v, s, d)) -> v = view && s = seqno && not (String.equal d digest))
          rs.Hub.responses
      then Some view
      else None)
    rs.Hub.responses

let hub_hooks config =
  let nf = Config.nf config in
  (* Per-hub commit-phase bookkeeping: request key -> (request state,
     replicas that acknowledged its local commit). *)
  let pending : (int * int, Hub.request_state * Quorum.t) Hashtbl.t =
    Hashtbl.create 256
  in
  let on_timeout hub (rs : Hub.request_state) =
    let count, witness = Hub.matching_responses rs in
    match witness with
    | Some (_view, seqno, digest) when count >= nf ->
        (* Slow path: turn the ≥ nf matching speculative responses into a
           commit certificate and broadcast it. *)
        let key = (rs.Hub.req.Message.client, rs.Hub.req.Message.rid) in
        if not (Hashtbl.mem pending key) then
          Hashtbl.replace pending key (rs, Quorum.create config.Config.n);
        Hub.broadcast_replicas hub ~bytes:Message.Wire.vote
          (Commit_cert
             { seqno; digest; acks = [ key ]; hub = Hub.hub_index hub })
    | Some _ | None ->
        (* Not enough matching responses yet: report a split (see
           [on_pom]) and re-forward so stragglers (or a future view)
           eventually serve us. *)
        (match conflicting_view rs with
        | Some view ->
            Hub.broadcast_replicas hub ~bytes:Message.Wire.vote (Z_pom { view })
        | None -> ());
        Hub.forward_to_all hub rs
  in
  let on_message hub ~src msg =
    match msg with
    | Local_commit { acks; replica; _ } ->
        ignore src;
        List.iter
          (fun key ->
            match Hashtbl.find_opt pending key with
            | None -> ()
            | Some (rs, votes) ->
                ignore (Quorum.replace votes ~src:replica ~digest:"");
                if Quorum.size votes >= nf then begin
                  Hashtbl.remove pending key;
                  Hub.complete hub rs
                end)
          acks;
        true
    | _ -> false
  in
  {
    (* Fast path: all n replicas must answer identically. *)
    Hub.quorum = config.Config.n;
    send_mode = Hub.To_primary;
    on_timeout = Some on_timeout;
    on_message = Some on_message;
  }
