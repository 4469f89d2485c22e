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
module Threshold = Poe_crypto.Threshold
module Block = Poe_ledger.Block
open Poe_msg

let name = "poe"

(* Per-(view, seqno) consensus slot. *)
type slot = {
  mutable batch : Message.batch option;
  mutable my_digest : string option;  (* digest this replica supported *)
  supports : Quorum.t; (* replica -> supported digest *)
  mutable shares : Threshold.share list; (* real shares (materialized TS) *)
  mutable verified_supports : int;    (* primary, TS variant *)
  mutable combining : bool;
  mutable certified : bool;
  mutable pending_certify : (string * string option) option;
      (* CERTIFY that arrived before we activated this view *)
  mutable offered : bool;
}

type replica = {
  ctx : Ctx.t;
  exec : Exec.t;
  pipeline : Pipeline.t;
  recovery : Recovery.t;
  slots : (int, slot) Hashtbl.t;
      (* keyed by (view, seqno) packed into one int: view lsl 40 lor seqno *)
  vc : vc_payload V.t;
  mutable next_seqno : int;   (* primary: next k to propose *)
}

let ctx t = t.ctx
let current_view t = t.vc.view
let view_of = current_view
let k_exec t = Exec.k_exec t.exec

let in_view_change t = V.in_view_change t.vc

let stable_seqno t = Exec.stable t.exec
let retained_batches t = Exec.retained t.exec

let cfg t = Ctx.config t.ctx
let costs t = Ctx.cost t.ctx
let nf t = Config.nf (cfg t)

let ts_variant t = (cfg t).Config.replica_scheme = Config.Auth_threshold

let is_primary t = Ctx.is_primary_of t.ctx t.vc.view

let primary_of t view = Config.primary_of_view (cfg t) view

let active_in t view = V.active_in t.vc view

let slot_key ~view ~seqno = (view lsl 40) lor seqno
let slot_key_view key = key lsr 40
let slot_key_seqno key = key land ((1 lsl 40) - 1)

(* Consensus-slot phase events (propose -> support -> certify; the execute
   phase and slot close are emitted by {!Exec_engine}). Pre-guarded: a
   disabled run pays one load-and-branch per call. *)
let tr_phase t ~view ~seqno phase =
  Ctx.trace_phase t.ctx ~cat:name ~view ~seqno phase

(* [find] rather than [find_opt]: a hit, once per vote, boxes nothing. *)
let slot_of t ~view ~seqno =
  match Hashtbl.find t.slots (slot_key ~view ~seqno) with
  | s -> s
  | exception Not_found ->
      let s =
        {
          batch = None;
          my_digest = None;
          supports = Quorum.create (cfg t).Config.n;
          shares = [];
          verified_supports = 0;
          combining = false;
          certified = false;
          pending_certify = None;
          offered = false;
        }
      in
      Hashtbl.replace t.slots (slot_key ~view ~seqno) s;
      s

(* ------------------------------------------------------------------ *)
(* Speculative execution (view-commit -> execute in order)             *)

let maybe_offer t ~view ~seqno slot =
  match slot.batch with
  | Some batch when slot.certified && not slot.offered ->
      slot.offered <- true;
      tr_phase t ~view ~seqno "certify";
      let proof =
        if ts_variant t then Block.Threshold_sig "certify"
        else Ctx.vote_certificate t.ctx slot.supports
      in
      Exec.offer t.exec ~seqno ~view ~batch ~proof
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Normal case: propose / support / certify (Fig. 3)                   *)

let send_certify t ~seqno ~digest ~signature =
  let msg = Certify { view = t.vc.view; seqno; digest; signature } in
  Ctx.broadcast_replicas t.ctx ~bytes:Message.Wire.vote msg;
  (* The primary view-commits locally as well. *)
  let slot = slot_of t ~view:t.vc.view ~seqno in
  slot.certified <- true;
  maybe_offer t ~view:t.vc.view ~seqno slot

let primary_try_certify t ~seqno slot =
  match slot.my_digest with
  | Some digest
    when (not slot.combining)
         && (not slot.certified)
         && slot.verified_supports >= nf t ->
      slot.combining <- true;
      let c = costs t in
      Ctx.work t.ctx Server.Worker
        ~cost:(Cost.combine_cost c ~shares:(nf t))
        (fun () ->
          let signature =
            match Ctx.threshold t.ctx with
            | Some (scheme, _) -> (
                match Threshold.combine scheme ~msg:digest slot.shares with
                | Ok s -> Some (Threshold.signature_bytes s)
                | Error e ->
                    (* Shares were verified before being counted, so an
                       honest primary cannot reach this point. *)
                    invalid_arg ("PoE combine failed: " ^ e))
            | None -> None
          in
          send_certify t ~seqno ~digest ~signature)
  | Some _ | None -> ()

(* MAC variant: view-commit once nf distinct replicas (the primary's
   proposal counting as its support) sent a SUPPORT matching ours. *)
let mac_try_commit t ~view ~seqno slot =
  match slot.my_digest with
  | Some digest when not slot.certified ->
      if Quorum.count slot.supports digest >= nf t then begin
        slot.certified <- true;
        maybe_offer t ~view ~seqno slot
      end
  | Some _ | None -> ()

let support_slot t ~view ~seqno slot (batch : Message.batch) =
  tr_phase t ~view ~seqno "support";
  let digest = support_digest ~view ~seqno ~batch_digest:batch.Message.digest in
  slot.my_digest <- Some digest;
  slot.batch <- Some batch;
  (* Record our own support. *)
  ignore (Quorum.replace slot.supports ~src:(Ctx.id t.ctx) ~digest);
  let c = costs t in
  let hash_cpu = Cost.hash_cost c ~bytes:(Message.Wire.propose (cfg t)) in
  if ts_variant t then
    Ctx.work t.ctx Server.Worker ~cost:(hash_cpu +. c.Cost.ts_share_sign)
      (fun () ->
        let share =
          match Ctx.threshold t.ctx with
          | Some (_, signer) -> Some (Threshold.sign_share signer digest)
          | None -> None
        in
        Ctx.send_replica t.ctx ~dst:(primary_of t view)
          ~bytes:Message.Wire.vote
          (Support { view; seqno; digest; share }))
  else begin
    let sign_cpu = Cost.auth_sign c (cfg t).Config.replica_scheme in
    Ctx.work t.ctx Server.Worker ~cost:(hash_cpu +. sign_cpu) (fun () ->
        Ctx.broadcast_replicas t.ctx ~bytes:Message.Wire.vote
          (Support_all { view; seqno; digest });
        mac_try_commit t ~view ~seqno slot)
  end

(* Verify and adopt a CERTIFY for a slot we have supported. *)
let process_certify t ~view ~seqno slot ~digest ~signature =
  match slot.my_digest with
  | Some my when String.equal my digest && not slot.certified ->
      let c = costs t in
      Ctx.work t.ctx Server.Worker ~cost:c.Cost.ts_verify (fun () ->
          let valid =
            match (Ctx.threshold t.ctx, signature) with
            | Some (scheme, _), Some s -> (
                match Threshold.signature_of_bytes s with
                | Some sigma -> Threshold.verify scheme ~msg:digest sigma
                | None -> false)
            | Some _, None -> false
            | None, _ -> true
          in
          if valid && not slot.certified then begin
            slot.certified <- true;
            maybe_offer t ~view ~seqno slot
          end)
  | Some _ | None -> ()

(* Begin the backup role for a proposal in the (now) active view: support
   it and replay any stashed certificate that raced ahead of the view
   activation. *)
let back_proposal t ~view ~seqno slot =
  match (slot.batch, slot.my_digest) with
  | Some batch, None when not (Ctx.is_primary_of t.ctx view) ->
      (* In the MAC variant the proposal doubles as the primary's
         support. *)
      if not (ts_variant t) then
        ignore
          (Quorum.replace slot.supports ~src:(primary_of t view)
             ~digest:
               (support_digest ~view ~seqno ~batch_digest:batch.Message.digest));
      support_slot t ~view ~seqno slot batch;
      if not (ts_variant t) then mac_try_commit t ~view ~seqno slot;
      (match slot.pending_certify with
      | Some (digest, signature) ->
          slot.pending_certify <- None;
          process_certify t ~view ~seqno slot ~digest ~signature
      | None -> ());
      maybe_offer t ~view ~seqno slot
  | (Some _ | None), _ -> ()

(* Proposals, votes and certificates for a *future* view can arrive before
   the NV-PROPOSE that activates it (messages are processed out of order);
   they are stashed in the slot and replayed on activation. *)
let on_propose t ~src ~view ~seqno (batch : Message.batch) =
  if
    view >= t.vc.view
    && src = Config.primary_of_view (cfg t) view
    && not (Ctx.is_primary_of t.ctx view)
  then begin
    V.request_nv t.vc ~src ~view;
    let slot = slot_of t ~view ~seqno in
    if slot.batch = None && slot.my_digest = None then begin
      slot.batch <- Some batch;
      tr_phase t ~view ~seqno "propose";
      if active_in t view then back_proposal t ~view ~seqno slot
    end
  end

let activate_pending_slots t =
  let view = t.vc.view in
  Hashtbl.iter
    (fun key slot ->
      if slot_key_view key = view then
        back_proposal t ~view ~seqno:(slot_key_seqno key) slot)
    (Hashtbl.copy t.slots)

let on_support t ~src ~view ~seqno ~digest ~share =
  if active_in t view && is_primary t then begin
    let slot = slot_of t ~view ~seqno in
    match slot.my_digest with
    | Some my
      when String.equal my digest
           && Quorum.add slot.supports ~src ~digest = Quorum.Added ->
        (* The worker thread verifies each share before counting it. *)
        let c = costs t in
        Ctx.work t.ctx Server.Worker ~cost:c.Cost.ts_share_verify (fun () ->
            let valid =
              match (Ctx.threshold t.ctx, share) with
              | Some (scheme, _), Some sh ->
                  Threshold.verify_share scheme ~msg:digest sh
              | Some _, None -> false
              | None, _ -> true
            in
            if valid then begin
              slot.verified_supports <- slot.verified_supports + 1;
              (match share with
              | Some sh -> slot.shares <- sh :: slot.shares
              | None -> ());
              primary_try_certify t ~seqno slot
            end)
    | Some _ | None -> ()
  end

let on_support_all t ~src ~view ~seqno ~digest =
  if view >= t.vc.view then begin
    V.request_nv t.vc ~src ~view;
    let slot = slot_of t ~view ~seqno in
    if Quorum.add slot.supports ~src ~digest = Quorum.Added && active_in t view
    then mac_try_commit t ~view ~seqno slot
  end

let on_certify t ~src ~view ~seqno ~digest ~signature =
  if view >= t.vc.view && src = Config.primary_of_view (cfg t) view then begin
    V.request_nv t.vc ~src ~view;
    let slot = slot_of t ~view ~seqno in
    (* The certificate can overtake its proposal on a jittery network (or
       arrive before the view activates): stash it until we have supported
       the proposal, else it would be lost forever and the slot would only
       recover via state transfer. *)
    if active_in t view && slot.my_digest <> None then
      process_certify t ~view ~seqno slot ~digest ~signature
    else if slot.pending_certify = None then
      slot.pending_certify <- Some (digest, signature)
  end

(* The primary's handling of a freshly assigned batch, including the
   byzantine behaviours of Example 3. *)
let propose_batch t (batch : Message.batch) =
  if Ctx.alive t.ctx && not (in_view_change t) && is_primary t then begin
    let seqno = t.next_seqno in
    t.next_seqno <- seqno + 1;
    let view = t.vc.view in
    tr_phase t ~view ~seqno "propose";
    let bytes = Message.Wire.propose (cfg t) in
    (match Ctx.behavior t.ctx with
    | Ctx.Honest ->
        Ctx.broadcast_replicas t.ctx ~bytes (Propose { view; seqno; batch })
    | Ctx.Silent | Ctx.Stop_proposing -> ()
    | Ctx.Keep_in_dark dark ->
        let dsts =
          List.init (cfg t).Config.n (fun i -> i)
          |> List.filter (fun i -> i <> Ctx.id t.ctx && not (List.mem i dark))
        in
        Ctx.broadcast_to t.ctx ~dsts ~bytes (Propose { view; seqno; batch })
    | Ctx.Equivocate ->
        (* Split the backups in two halves and propose conflicting
           batches (Example 3, case 1). Proposition 2 guarantees at most
           one can ever be view-committed. *)
        let n = (cfg t).Config.n in
        let me = Ctx.id t.ctx in
        let others = List.init n (fun i -> i) |> List.filter (fun i -> i <> me) in
        let half = List.length others / 2 in
        let left = List.filteri (fun i _ -> i < half) others in
        let right = List.filteri (fun i _ -> i >= half) others in
        let forged =
          { batch with Message.digest = batch.Message.digest ^ "!equiv" }
        in
        Ctx.broadcast_to t.ctx ~dsts:left ~bytes (Propose { view; seqno; batch });
        Ctx.broadcast_to t.ctx ~dsts:right ~bytes
          (Propose { view; seqno; batch = forged }));
    (* The primary supports its own proposal (it contributes its own
       signature share, §II-E optimization 1). *)
    let slot = slot_of t ~view ~seqno in
    let digest =
      support_digest ~view ~seqno ~batch_digest:batch.Message.digest
    in
    slot.batch <- Some batch;
    slot.my_digest <- Some digest;
    ignore (Quorum.replace slot.supports ~src:(Ctx.id t.ctx) ~digest);
    tr_phase t ~view ~seqno "support";
    if ts_variant t then begin
      slot.verified_supports <- 1;
      (match Ctx.threshold t.ctx with
      | Some (_, signer) -> slot.shares <- [ Threshold.sign_share signer digest ]
      | None -> ());
      primary_try_certify t ~seqno slot
    end
    else mac_try_commit t ~view ~seqno slot
  end

(* ------------------------------------------------------------------ *)
(* Client requests                                                     *)

let on_client_request t (req : Message.request) =
  if Exec.was_executed t.exec req then ()
  else if not (in_view_change t) && is_primary t then
    Pipeline.add_request t.pipeline req
  else Recovery.watch t.recovery req

(* ------------------------------------------------------------------ *)
(* View change (Fig. 5)                                                *)

let my_vc_payload t ~from_view =
  let entries =
    Exec.executed_since t.exec (Exec.stable t.exec)
    |> List.map (fun (e_seqno, e_view, e_batch) ->
           { Message.e_seqno; e_view; e_batch })
  in
  { from_view; exec_upto = Exec.k_exec t.exec; entries }

let adopt t ~new_view vcs =
  (* Adopt the longest consecutive executed prefix among the nf summaries
     (§II-C3); roll back any speculative execution beyond or conflicting
     with it (Fig. 5 line 14). Proposition 5: any request some client
     holds a proof-of-execution for appears in at least one of any nf
     summaries, so it survives. *)
  let best = V.longest ~by:(fun (p : vc_payload) -> p.exec_upto) vcs in
  let kmax = match best with Some p -> p.exec_upto | None -> -1 in
  (* A stable checkpoint is certified by nf votes and is final: rollback
     never crosses it (the undo log below it is truncated anyway). The
     summaries can be older than our checkpoint — a replica that missed a
     view change, then caught up by state transfer from the new view,
     receives the retransmitted NV-PROPOSE only afterwards; its adopted
     prefix already extends the new view's history, so there is nothing
     to unwind. *)
  V.reconcile t.exec ~floor:(Exec.stable t.exec) ~upto:kmax
    (match best with Some p -> p.entries | None -> []);
  V.install t.vc ~new_view vcs;
  (* If the checkpoint floor kept us ahead of [kmax], new slots must open
     above everything we hold final — re-assigning a certified-final seqno
     to a fresh batch would fork the sequence. *)
  t.next_seqno <- max (kmax + 1) (Exec.k_exec t.exec + 1);
  (* Stale per-view consensus state is dead: every undecided proposal of
     older views is either in the adopted prefix or abandoned. *)
  Hashtbl.filter_map_inplace
    (fun key v -> if slot_key_view key < new_view then None else Some v)
    t.slots;
  (* Proposals for the new view may have raced ahead of this NV-PROPOSE;
     support them now. *)
  activate_pending_slots t;
  (* Re-forward every still-unexecuted watched request; as the new primary,
     propose them directly. A new primary that lagged behind the adopted
     prefix (crashed or partitioned while those slots executed) has
     [Exec.was_executed] still false for requests the cluster already
     decided: dedup must come from the view-change summaries, not from
     local execution. Every executed request appears in at least one of
     any nf summaries (Proposition 5), so marking the union covers the
     whole prefix. *)
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
  let valid (p : vc_payload) = V.entries_consecutive ~upto:p.exec_upto p.entries
  let summarize = my_vc_payload
  let halt _ ~from_view:_ = ()
  let adopt = adopt
end)

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)

let on_executed t ~seqno ~(batch : Message.batch) =
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
          ~on_stable:(fun seqno ->
            Hashtbl.filter_map_inplace
              (fun key v -> if slot_key_seqno key <= seqno then None else Some v)
              (me ()).slots)
          ();
      slots = Hashtbl.create 1024;
      vc = V.create ctx ~name;
      next_seqno = 0;
    }
  in
  self := Some t;
  t

let start_replica t = Recovery.start t.recovery

let force_suspect = Vc.force_suspect

let on_message t ~src msg =
  if Ctx.alive t.ctx && not (Recovery.on_message t.recovery ~src msg) then
    match msg with
    | Message.Client_request req -> on_client_request t req
    | Message.Client_request_bundle reqs -> List.iter (on_client_request t) reqs
    | Message.Client_forward req -> on_client_request t req
    | Propose { view; seqno; batch } -> on_propose t ~src ~view ~seqno batch
    | Support { view; seqno; digest; share } ->
        on_support t ~src ~view ~seqno ~digest ~share
    | Support_all { view; seqno; digest } ->
        on_support_all t ~src ~view ~seqno ~digest
    | Certify { view; seqno; digest; signature } ->
        on_certify t ~src ~view ~seqno ~digest ~signature
    | msg -> Vc.on_message t ~src msg

let receive_cost ~src config cost msg =
  match R.Protocol_intf.client_receive_cost ~src config cost msg with
  | Some c -> c
  | None -> (
      let base = cost.Cost.msg_in in
      match msg with
      | Propose _ | Support_all _ ->
          (* MAC-authenticated channel messages (§II-E optimization 2). *)
          base +. Cost.auth_verify cost config.Config.replica_scheme
      | Support _ | Certify _ ->
          (* Share/TS validation is charged on the worker thread. *)
          base +. cost.Cost.mac_verify
      | Vc.Vc_request _ | Vc.Nv_propose _ | V.Nv_request _ ->
          (* VC-REQUESTs are forwarded, hence signed (§II-E). *)
          base +. cost.Cost.ds_verify
      | _ -> base)

let hub_hooks config =
  {
    Hub.quorum = Config.nf config;
    send_mode = Hub.To_primary;
    on_timeout = None;
    on_message = None;
  }
