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
module Block = Poe_ledger.Block

let name = "zyzzyva"

module Trace = Poe_obs.Trace
module Metrics = Poe_obs.Metrics

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
  | Z_vc_request of { payload : vc_payload }
      (** all → all: signed local-history certificate (view change) *)
  | Z_nv_propose of { new_view : int; vcs : (int * vc_payload) list }
      (** new primary → all: nf history certificates; install new view *)
  | Z_nv_request of { view : int }
      (** straggler → peer: please retransmit the NV that installed view *)
  | Z_pom of { view : int }
      (** client → all: proof of misbehavior — two replicas answered the
          same slot of [view] with different results *)

type status = Active | In_view_change of int (* from_view *)

type replica = {
  ctx : Ctx.t;
  mutable exec : Exec.t;
  mutable pipeline : Pipeline.t;
  mutable recovery : Recovery.t;
  mutable next_seqno : int;
  mutable view : int;
  mutable status : status;
  mutable cc_upto : int;  (* highest seqno we Local_commit-acked *)
  vc_store : (int, (int, vc_payload) Hashtbl.t) Hashtbl.t;
      (* from_view -> sender -> payload *)
  mutable vc_round : int;  (* consecutive view-changes (backoff) *)
  mutable nv_deadline : float;
  mutable nv_sent_for : int;
  mutable last_nv : (int * (int * vc_payload) list) option;
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
let current_view t = t.view
let view_of = current_view
let k_exec t = Exec.k_exec t.exec
let cfg t = Ctx.config t.ctx
let nf t = Config.nf (cfg t)
let fq t = Config.f (cfg t)
let primary_of t view = Config.primary_of_view (cfg t) view
let is_primary t = Ctx.is_primary_of t.ctx t.view
let active_in t view = t.status = Active && view = t.view

let in_view_change t =
  match t.status with Active -> false | In_view_change _ -> true

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

let tr_instant t what = Ctx.trace_instant t.ctx ~cat:name ~view:t.view what

let entries_consecutive entries =
  let rec go = function
    | [] | [ _ ] -> true
    | (a : Message.exec_entry) :: (b :: _ as rest) ->
        b.Message.e_seqno = a.Message.e_seqno + 1 && go rest
  in
  go entries

(* ------------------------------------------------------------------ *)
(* Normal case: speculative execution                                  *)

let speculate t ~view ~seqno (batch : Message.batch) =
  tr_phase t ~view ~seqno "propose";
  Exec.offer t.exec ~seqno ~view ~batch ~proof:Block.No_proof

let propose_batch t (batch : Message.batch) =
  if Ctx.alive t.ctx && t.status = Active && is_primary t then begin
    let seqno = t.next_seqno in
    t.next_seqno <- seqno + 1;
    let view = t.view in
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

let vc_bucket t from_view =
  match Hashtbl.find_opt t.vc_store from_view with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace t.vc_store from_view h;
      h

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

let nv_deadline_for t =
  (cfg t).Config.view_timeout *. float_of_int (1 lsl min t.vc_round 6)

let request_nv t ~src ~view =
  if view > t.view then
    Ctx.send_replica t.ctx ~dst:src ~bytes:Message.Wire.vote
      (Z_nv_request { view })

let on_nv_request t ~src ~view =
  match t.last_nv with
  | Some (new_view, vcs) when new_view >= view ->
      let total =
        List.fold_left (fun acc (_, p) -> acc + List.length p.entries) 0 vcs
      in
      Ctx.send_replica t.ctx ~dst:src
        ~bytes:(Message.Wire.view_change (cfg t) ~entries:total)
        (Z_nv_propose { new_view; vcs })
  | Some _ | None -> ()

let rec initiate_view_change t ~from_view =
  let already_requested =
    match t.status with
    | In_view_change v -> v >= from_view
    | Active -> false
  in
  if (not already_requested) && from_view >= t.view then begin
    tr_instant t "view_change";
    if Metrics.enabled () then Metrics.cincr "zyzzyva.view_changes";
    (if t.status = Active then begin
       (* Open the failover span on the first slot the view change
          blocks; enter_new_view closes it with a "new_view" phase. *)
       t.vc_phase_slot <- Exec.k_exec t.exec + 1;
       tr_phase t ~view:(from_view + 1) ~seqno:t.vc_phase_slot "view_change"
     end);
    t.status <- In_view_change from_view;
    t.nv_deadline <- Ctx.now t.ctx +. nv_deadline_for t;
    t.vc_round <- t.vc_round + 1;
    let payload = my_vc_payload t ~from_view in
    let bytes =
      Message.Wire.view_change (cfg t) ~entries:(List.length payload.entries)
    in
    Ctx.broadcast_replicas t.ctx ~bytes (Z_vc_request { payload });
    Hashtbl.replace (vc_bucket t from_view) (Ctx.id t.ctx) payload;
    maybe_propose_new_view t ~from_view;
    let this_deadline = t.nv_deadline in
    Ctx.schedule t.ctx ~delay:(this_deadline -. Ctx.now t.ctx) (fun () ->
        match t.status with
        | In_view_change v when v = from_view && t.nv_deadline = this_deadline ->
            initiate_view_change t ~from_view:(from_view + 1)
        | In_view_change _ | Active -> ())
  end

and maybe_propose_new_view t ~from_view =
  let new_view = from_view + 1 in
  if
    Config.primary_of_view (cfg t) new_view = Ctx.id t.ctx
    && t.nv_sent_for < new_view
  then begin
    let bucket = vc_bucket t from_view in
    let valid =
      Hashtbl.fold
        (fun src payload acc ->
          if
            entries_consecutive payload.entries
            && payload.cc_upto <= payload.exec_upto
          then (src, payload) :: acc
          else acc)
        bucket []
    in
    if List.length valid >= nf t then begin
      t.nv_sent_for <- new_view;
      let vcs =
        List.sort (fun (a, _) (b, _) -> compare a b) valid
        |> List.filteri (fun i _ -> i < nf t)
      in
      let total_entries =
        List.fold_left (fun acc (_, p) -> acc + List.length p.entries) 0 vcs
      in
      let bytes = Message.Wire.view_change (cfg t) ~entries:total_entries in
      Ctx.broadcast_replicas t.ctx ~bytes (Z_nv_propose { new_view; vcs });
      enter_new_view t ~new_view ~vcs
    end
  end

and on_vc_request t ~src ~(payload : vc_payload) =
  if
    payload.from_view >= t.view - 1
    && entries_consecutive payload.entries
    && payload.cc_upto <= payload.exec_upto
  then begin
    let bucket = vc_bucket t payload.from_view in
    Hashtbl.replace bucket src payload;
    (* Join rule: f+1 distinct view-change requests for the current view
       prove some non-faulty replica detected a failure. *)
    (if t.status = Active && payload.from_view = t.view then
       let distinct = Hashtbl.length bucket in
       if distinct >= fq t + 1 then initiate_view_change t ~from_view:t.view);
    (match t.status with
    | In_view_change v when v = payload.from_view ->
        maybe_propose_new_view t ~from_view:v
    | In_view_change _ | Active -> ())
  end

and enter_new_view t ~new_view ~vcs =
  let floor = Exec.stable t.exec in
  (* The summary whose acked commit certificate reaches highest: its own
     entries are adopted through [kcc] when per-slot votes fall short. *)
  let cc_best =
    List.fold_left
      (fun acc ((_, p) : int * vc_payload) ->
        match acc with
        | Some (b : vc_payload) when b.cc_upto >= p.cc_upto -> acc
        | _ -> Some p)
      None vcs
  in
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
     checkpoint (nf-certified, final). *)
  let target = max kadopt floor in
  if Exec.k_exec t.exec > target then
    ignore (Exec.rollback_to t.exec ~seqno:target);
  (* Certified-but-unexecuted slots of the dead view (out-of-order offers
     still parked in the engine) are abandoned, not adopted. *)
  Exec.abandon_unexecuted t.exec;
  (* Roll back to just before the first entry where our speculative
     history diverges from the adopted prefix, then re-execute it. *)
  let divergence =
    List.find_opt
      (fun (e : Message.exec_entry) ->
        e.Message.e_seqno <= Exec.k_exec t.exec
        &&
        match Exec.executed_batch t.exec e.Message.e_seqno with
        | Some b ->
            not
              (String.equal b.Message.digest e.Message.e_batch.Message.digest)
        | None -> false)
      adopted
  in
  (match divergence with
  | Some e ->
      let to_seqno = max (e.Message.e_seqno - 1) floor in
      if Exec.k_exec t.exec > to_seqno then
        ignore (Exec.rollback_to t.exec ~seqno:to_seqno)
  | None -> ());
  List.iter
    (fun (e : Message.exec_entry) ->
      if e.Message.e_seqno = Exec.k_exec t.exec + 1 then
        Exec.force_adopt t.exec ~seqno:e.Message.e_seqno
          ~view:e.Message.e_view ~batch:e.Message.e_batch
          ~proof:(Block.Vote_certificate []))
    adopted;
  t.view <- new_view;
  t.status <- Active;
  t.vc_round <- 0;
  tr_instant t "new_view";
  tr_phase t ~view:new_view ~seqno:t.vc_phase_slot "new_view";
  if Metrics.enabled () then Metrics.cincr "zyzzyva.new_views";
  t.last_nv <- Some (new_view, vcs);
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
  if is_primary t then begin
    Pipeline.reset_window t.pipeline;
    (* Dedup against the cluster's decided prefix, not just local
       execution: every completed request appears in the adopted union
       of any nf summaries. *)
    List.iter
      (fun ((_, p) : int * vc_payload) ->
        List.iter
          (fun (e : Message.exec_entry) ->
            Array.iter
              (Pipeline.mark_proposed t.pipeline)
              e.Message.e_batch.Message.reqs)
          p.entries)
      vcs;
    List.iter
      (fun req ->
        if not (Exec.was_executed t.exec req) then
          Pipeline.add_request t.pipeline req)
      (Recovery.watched_requests t.recovery)
  end
  else Recovery.refresh_watches t.recovery

and on_nv_propose t ~src ~new_view ~vcs =
  if
    new_view > t.view
    && src = Config.primary_of_view (cfg t) new_view
    && List.length vcs >= nf t
    && List.for_all
         (fun (_, p) ->
           entries_consecutive p.entries && p.cc_upto <= p.exec_upto)
         vcs
    &&
    let srcs = List.map fst vcs in
    List.length (List.sort_uniq compare srcs) = List.length srcs
  then enter_new_view t ~new_view ~vcs

let force_suspect t =
  if t.status = Active then initiate_view_change t ~from_view:t.view

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)

let on_order_req t ~src ~view ~seqno (batch : Message.batch) =
  if
    view >= t.view
    && src = primary_of t view
    && not (Ctx.is_primary_of t.ctx view)
  then begin
    request_nv t ~src ~view;
    if active_in t view then begin
      let c = Ctx.cost t.ctx in
      Ctx.work t.ctx Server.Worker
        ~cost:(Cost.hash_cost c ~bytes:(Message.Wire.propose (cfg t)))
        (fun () -> speculate t ~view ~seqno batch)
    end
    else if view > t.view then
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
    if Metrics.enabled () then Metrics.cincr "zyzzyva.commit_certs";
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
  if t.status = Active && view = t.view then
    initiate_view_change t ~from_view:view

let on_client_request t (req : Message.request) =
  if Exec.was_executed t.exec req then begin
    (* Executed here, yet the client still retries: with an equivocating
       primary every replica executes *something* for the request, so
       watch-based suspicion never arms — persistent retries are the only
       local symptom that no quorum of matching responses exists. One
       retry is routine (a forward can race our response); a retry still
       recurring a view-timeout later is suspicious. *)
    if t.status = Active then begin
      let key = Message.request_key req in
      let now = Ctx.now t.ctx in
      match Hashtbl.find_opt t.retries key with
      | None -> Hashtbl.replace t.retries key now
      | Some first when now -. first >= (cfg t).Config.view_timeout ->
          Hashtbl.remove t.retries key;
          initiate_view_change t ~from_view:t.view
      | Some _ -> ()
    end
  end
  else if t.status = Active && is_primary t then
    Pipeline.add_request t.pipeline req
  else Recovery.watch t.recovery req

let on_executed t ~seqno ~batch =
  if is_primary t then Pipeline.seqno_closed t.pipeline;
  Recovery.note_executed t.recovery ~seqno ~batch

let create_replica ctx =
  let placeholder_exec = Exec.create ~ctx () in
  let t =
    {
      ctx;
      exec = placeholder_exec;
      pipeline = Pipeline.create ~ctx ~on_batch:(fun _ -> ()) ();
      recovery =
        Recovery.create ~ctx ~exec:placeholder_exec
          ~primary:(fun () -> 0)
          ~active:(fun () -> false)
          ~on_suspect:(fun () -> ())
          ();
      next_seqno = 0;
      view = 0;
      status = Active;
      cc_upto = -1;
      vc_store = Hashtbl.create 4;
      vc_round = 0;
      nv_deadline = 0.0;
      nv_sent_for = 0;
      last_nv = None;
      vc_phase_slot = 0;
      pending = Hashtbl.create 64;
      retries = Hashtbl.create 256;
    }
  in
  t.exec <-
    Exec.create ~ctx
      ~on_executed:(fun ~seqno ~batch ~result:_ -> on_executed t ~seqno ~batch)
      ();
  t.pipeline <-
    Pipeline.create ~ctx ~on_batch:(fun batch -> propose_batch t batch) ();
  t.recovery <-
    Recovery.create ~ctx ~exec:t.exec
      ~primary:(fun () -> primary_of t t.view)
      ~active:(fun () -> t.status = Active)
      ~on_suspect:(fun () -> initiate_view_change t ~from_view:t.view)
      ();
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
    | Z_vc_request { payload } -> on_vc_request t ~src ~payload
    | Z_nv_propose { new_view; vcs } -> on_nv_propose t ~src ~new_view ~vcs
    | Z_nv_request { view } -> on_nv_request t ~src ~view
    | Z_pom { view } -> on_pom t ~view
    | _ -> ()

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
      | Z_vc_request _ | Z_nv_propose _ | Z_nv_request _ | Z_pom _ ->
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
     local-commit acks per replica). *)
  let pending :
      (int * int, Hub.request_state * (int, unit) Hashtbl.t) Hashtbl.t =
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
          Hashtbl.replace pending key (rs, Hashtbl.create 8);
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
                Hashtbl.replace votes replica ();
                if Hashtbl.length votes >= nf then begin
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
