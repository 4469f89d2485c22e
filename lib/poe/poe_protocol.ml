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
module Threshold = Poe_crypto.Threshold
module Block = Poe_ledger.Block
open Poe_msg

let name = "poe"

module Metrics = Poe_obs.Metrics

(* Per-(view, seqno) consensus slot. *)
type slot = {
  mutable batch : Message.batch option;
  mutable my_digest : string option;  (* digest this replica supported *)
  supports : (int, string) Hashtbl.t; (* replica -> supported digest *)
  mutable shares : Threshold.share list; (* real shares (materialized TS) *)
  mutable verified_supports : int;    (* primary, TS variant *)
  mutable combining : bool;
  mutable certified : bool;
  mutable pending_certify : (string * string option) option;
      (* CERTIFY that arrived before we activated this view *)
  mutable offered : bool;
}

type status = Active | In_view_change of int (* from_view *)

type replica = {
  ctx : Ctx.t;
  mutable exec : Exec.t;        (* set in create_replica *)
  mutable pipeline : Pipeline.t;
  mutable recovery : Recovery.t;
  slots : (int, slot) Hashtbl.t;
      (* keyed by (view, seqno) packed into one int: view lsl 40 lor seqno *)
  vc_store : (int, (int, vc_payload) Hashtbl.t) Hashtbl.t;
      (* from_view -> sender -> payload *)
  mutable view : int;
  mutable status : status;
  mutable next_seqno : int;   (* primary: next k to propose *)
  mutable vc_round : int;     (* consecutive view-changes (backoff) *)
  mutable nv_deadline : float;  (* waiting for NV-PROPOSE until then *)
  mutable nv_sent_for : int;  (* highest new_view this replica NV-proposed *)
  mutable last_nv : (int * (int * vc_payload) list) option;
      (* the NV-PROPOSE that brought us to the current view, kept for
         retransmission to replicas that lost it *)
  mutable nv_requested_for : int; (* rate limit: highest view asked about *)
}

let ctx t = t.ctx
let current_view t = t.view
let view_of = current_view
let k_exec t = Exec.k_exec t.exec

let in_view_change t =
  match t.status with Active -> false | In_view_change _ -> true

let stable_seqno t = Exec.stable t.exec
let retained_batches t = Exec.retained t.exec

let cfg t = Ctx.config t.ctx
let costs t = Ctx.cost t.ctx
let nf t = Config.nf (cfg t)
let fq t = Config.f (cfg t)

let ts_variant t = (cfg t).Config.replica_scheme = Config.Auth_threshold

let is_primary t = Ctx.is_primary_of t.ctx t.view

let primary_of t view = Config.primary_of_view (cfg t) view

let active_in t view = not (in_view_change t) && view = t.view

let slot_key ~view ~seqno = (view lsl 40) lor seqno
let slot_key_view key = key lsr 40
let slot_key_seqno key = key land ((1 lsl 40) - 1)

(* Consensus-slot phase events (propose -> support -> certify; the execute
   phase and slot close are emitted by {!Exec_engine}). Pre-guarded: a
   disabled run pays one load-and-branch per call. *)
let tr_phase t ~view ~seqno phase =
  Ctx.trace_phase t.ctx ~cat:name ~view ~seqno phase

let tr_instant t what = Ctx.trace_instant t.ctx ~cat:name ~view:t.view what

let slot_of t ~view ~seqno =
  match Hashtbl.find_opt t.slots (slot_key ~view ~seqno) with
  | Some s -> s
  | None ->
      let s =
        {
          batch = None;
          my_digest = None;
          supports = Hashtbl.create 8;
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
        else
          Block.Vote_certificate
            (Hashtbl.fold (fun id _ acc -> id :: acc) slot.supports [])
      in
      Exec.offer t.exec ~seqno ~view ~batch ~proof
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Normal case: propose / support / certify (Fig. 3)                   *)

let send_certify t ~seqno ~digest ~signature =
  let msg = Certify { view = t.view; seqno; digest; signature } in
  Ctx.broadcast_replicas t.ctx ~bytes:Message.Wire.vote msg;
  (* The primary view-commits locally as well. *)
  let slot = slot_of t ~view:t.view ~seqno in
  slot.certified <- true;
  maybe_offer t ~view:t.view ~seqno slot

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
      let matching =
        Hashtbl.fold
          (fun _ d acc -> if String.equal d digest then acc + 1 else acc)
          slot.supports 0
      in
      if matching >= nf t then begin
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
  Hashtbl.replace slot.supports (Ctx.id t.ctx) digest;
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
        Hashtbl.replace slot.supports (primary_of t view)
          (support_digest ~view ~seqno ~batch_digest:batch.Message.digest);
      support_slot t ~view ~seqno slot batch;
      if not (ts_variant t) then mac_try_commit t ~view ~seqno slot;
      (match slot.pending_certify with
      | Some (digest, signature) ->
          slot.pending_certify <- None;
          process_certify t ~view ~seqno slot ~digest ~signature
      | None -> ());
      maybe_offer t ~view ~seqno slot
  | (Some _ | None), _ -> ()

(* Traffic for a view beyond ours means an NV-PROPOSE exists that we have
   not processed — out-of-order delivery, or the NV was lost. Stashing
   (below) covers reordering; asking the sender to retransmit the NV covers
   loss, without which a replica could be stranded on a stale speculative
   prefix forever. *)
let request_nv t ~src ~view =
  (* No rate limit beyond one-per-received-message: the retransmission can
     itself be lost, and ahead-of-view traffic is what tells us to retry. *)
  if view > t.view then begin
    t.nv_requested_for <- max t.nv_requested_for view;
    Ctx.send_replica t.ctx ~dst:src ~bytes:Message.Wire.vote
      (Nv_request { view })
  end

let on_nv_request t ~src ~view =
  match t.last_nv with
  | Some (new_view, vcs) when new_view >= view ->
      let total =
        List.fold_left (fun acc (_, p) -> acc + List.length p.entries) 0 vcs
      in
      Ctx.send_replica t.ctx ~dst:src
        ~bytes:(Message.Wire.view_change (cfg t) ~entries:total)
        (Nv_propose { new_view; vcs })
  | Some _ | None -> ()

(* Proposals, votes and certificates for a *future* view can arrive before
   the NV-PROPOSE that activates it (messages are processed out of order);
   they are stashed in the slot and replayed on activation. *)
let on_propose t ~src ~view ~seqno (batch : Message.batch) =
  if
    view >= t.view
    && src = Config.primary_of_view (cfg t) view
    && not (Ctx.is_primary_of t.ctx view)
  then begin
    request_nv t ~src ~view;
    let slot = slot_of t ~view ~seqno in
    if slot.batch = None && slot.my_digest = None then begin
      slot.batch <- Some batch;
      tr_phase t ~view ~seqno "propose";
      if active_in t view then back_proposal t ~view ~seqno slot
    end
  end

let activate_pending_slots t =
  let view = t.view in
  Hashtbl.iter
    (fun key slot ->
      if slot_key_view key = view then
        back_proposal t ~view ~seqno:(slot_key_seqno key) slot)
    (Hashtbl.copy t.slots)

let on_support t ~src ~view ~seqno ~digest ~share =
  if active_in t view && is_primary t then begin
    let slot = slot_of t ~view ~seqno in
    match slot.my_digest with
    | Some my when String.equal my digest && not (Hashtbl.mem slot.supports src)
      ->
        Hashtbl.replace slot.supports src digest;
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
  if view >= t.view then begin
    request_nv t ~src ~view;
    let slot = slot_of t ~view ~seqno in
    if not (Hashtbl.mem slot.supports src) then begin
      Hashtbl.replace slot.supports src digest;
      if active_in t view then mac_try_commit t ~view ~seqno slot
    end
  end

let on_certify t ~src ~view ~seqno ~digest ~signature =
  if view >= t.view && src = Config.primary_of_view (cfg t) view then begin
    request_nv t ~src ~view;
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
    let view = t.view in
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
    Hashtbl.replace slot.supports (Ctx.id t.ctx) digest;
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
  { from_view; exec_upto = Exec.k_exec t.exec; entries }

let nv_deadline_for t =
  (cfg t).Config.view_timeout *. float_of_int (1 lsl min t.vc_round 6)

(* Halt the normal case for the current view and ask everyone to move past
   [from_view]. *)
let rec initiate_view_change t ~from_view =
  let already_requested =
    match t.status with
    | In_view_change v -> v >= from_view
    | Active -> false
  in
  if (not already_requested) && from_view >= t.view then begin
    tr_instant t "view_change";
    if Metrics.enabled () then Metrics.cincr "poe.view_changes";
    t.status <- In_view_change from_view;
    (* Timeout starts at δ and doubles with each consecutive view change
       (exponential backoff, proof of Theorem 7). *)
    t.nv_deadline <- Ctx.now t.ctx +. nv_deadline_for t;
    t.vc_round <- t.vc_round + 1;
    let payload = my_vc_payload t ~from_view in
    let bytes =
      Message.Wire.view_change (cfg t) ~entries:(List.length payload.entries)
    in
    Ctx.broadcast_replicas t.ctx ~bytes (Vc_request { payload });
    Hashtbl.replace (vc_bucket t from_view) (Ctx.id t.ctx) payload;
    maybe_propose_new_view t ~from_view;
    let this_deadline = t.nv_deadline in
    Ctx.schedule t.ctx ~delay:(this_deadline -. Ctx.now t.ctx) (fun () ->
        match t.status with
        | In_view_change v when v = from_view && t.nv_deadline = this_deadline ->
            (* No valid NV-PROPOSE in time: suspect the next primary too. *)
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
          if entries_consecutive payload.entries then (src, payload) :: acc
          else acc)
        bucket []
    in
    if List.length valid >= nf t then begin
      t.nv_sent_for <- new_view;
      let vcs =
        (* Any nf valid requests suffice (Fig. 5, nv-propose). *)
        List.sort (fun (a, _) (b, _) -> compare a b) valid
        |> List.filteri (fun i _ -> i < nf t)
      in
      let total_entries =
        List.fold_left (fun acc (_, p) -> acc + List.length p.entries) 0 vcs
      in
      let bytes = Message.Wire.view_change (cfg t) ~entries:total_entries in
      Ctx.broadcast_replicas t.ctx ~bytes (Nv_propose { new_view; vcs });
      enter_new_view t ~new_view ~vcs
    end
  end

and on_vc_request t ~src ~(payload : vc_payload) =
  if payload.from_view >= t.view - 1 && entries_consecutive payload.entries
  then begin
    let bucket = vc_bucket t payload.from_view in
    Hashtbl.replace bucket src payload;
    (* Join rule: f+1 distinct view-change requests for the current view
       prove some non-faulty replica detected a failure (Fig. 5 line 8). *)
    (if not (in_view_change t) && payload.from_view = t.view then
       let distinct = Hashtbl.length bucket in
       if distinct >= fq t + 1 then initiate_view_change t ~from_view:t.view);
    (match t.status with
    | In_view_change v when v = payload.from_view ->
        maybe_propose_new_view t ~from_view:v
    | In_view_change _ | Active -> ())
  end

and enter_new_view t ~new_view ~vcs =
  (* Adopt the longest consecutive executed prefix among the nf summaries
     (§II-C3); roll back any speculative execution beyond or conflicting
     with it (Fig. 5 line 14). Proposition 5: any request some client
     holds a proof-of-execution for appears in at least one of any nf
     summaries, so it survives. *)
  let best =
    List.fold_left
      (fun acc (_, p) ->
        match acc with
        | Some (b : vc_payload) when b.exec_upto >= p.exec_upto -> acc
        | _ -> Some p)
      None vcs
  in
  let kmax = match best with Some p -> p.exec_upto | None -> -1 in
  (* A stable checkpoint is certified by nf votes and is final: rollback
     never crosses it (the undo log below it is truncated anyway). The
     summaries can be older than our checkpoint — a replica that missed a
     view change, then caught up by state transfer from the new view,
     receives the retransmitted NV-PROPOSE only afterwards; its adopted
     prefix already extends the new view's history, so there is nothing
     to unwind. *)
  let floor = Exec.stable t.exec in
  let target = max kmax floor in
  if Exec.k_exec t.exec > target then
    ignore (Exec.rollback_to t.exec ~seqno:target);
  (* Certified-but-unexecuted slots of the dead view are abandoned, not
     adopted: drop them before they can execute behind a filled gap. *)
  Exec.abandon_unexecuted t.exec;
  (match best with
  | None -> ()
  | Some p ->
      (* Roll back to just before the first entry where our speculative
         history diverges from the adopted prefix, then re-execute. *)
      let divergence =
        List.find_opt
          (fun (e : Message.exec_entry) ->
            e.e_seqno <= Exec.k_exec t.exec
            &&
            match Exec.executed_batch t.exec e.e_seqno with
            | Some b ->
                not (String.equal b.Message.digest e.e_batch.Message.digest)
            | None -> false)
          p.entries
      in
      (match divergence with
      | Some e ->
          (* Same floor as above: a divergence at or below the stable
             checkpoint can only come from a stale summary. *)
          let to_seqno = max (e.e_seqno - 1) floor in
          if Exec.k_exec t.exec > to_seqno then
            ignore (Exec.rollback_to t.exec ~seqno:to_seqno)
      | None -> ());
      List.iter
        (fun (e : Message.exec_entry) ->
          if e.e_seqno = Exec.k_exec t.exec + 1 then
            Exec.force_adopt t.exec ~seqno:e.e_seqno ~view:e.e_view
              ~batch:e.e_batch ~proof:(Block.Vote_certificate []))
        p.entries);
  t.view <- new_view;
  t.status <- Active;
  t.vc_round <- 0;
  tr_instant t "new_view";
  if Metrics.enabled () then Metrics.cincr "poe.new_views";
  t.last_nv <- Some (new_view, vcs);
  (* If the checkpoint floor kept us ahead of [kmax], new slots must open
     above everything we hold final — re-assigning a certified-final seqno
     to a fresh batch would fork the sequence. *)
  t.next_seqno <- max (kmax + 1) (Exec.k_exec t.exec + 1);
  (* Stale per-view consensus state is dead: every undecided proposal of
     older views is either in the adopted prefix or abandoned. *)
  Hashtbl.iter
    (fun key _ -> if slot_key_view key < new_view then Hashtbl.remove t.slots key)
    (Hashtbl.copy t.slots);
  (* Proposals for the new view may have raced ahead of this NV-PROPOSE;
     support them now. *)
  activate_pending_slots t;
  (* Re-forward every still-unexecuted watched request; as the new primary,
     propose them directly (with a fresh watermark window: slots opened in
     the dead view will never close). *)
  if is_primary t then begin
    Pipeline.reset_window t.pipeline;
    (* A new primary that lagged behind the adopted prefix (crashed or
       partitioned while those slots executed) has [Exec.was_executed]
       still false for requests the cluster already decided: dedup must
       come from the view-change summaries, not from local execution.
       Every executed request appears in at least one of any nf summaries
       (Proposition 5), so marking the union covers the whole prefix. *)
    List.iter
      (fun ((_, p) : int * vc_payload) ->
        List.iter
          (fun (e : Message.exec_entry) ->
            Array.iter
              (Pipeline.mark_proposed t.pipeline)
              e.e_batch.Message.reqs)
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
    && List.for_all (fun (_, p) -> entries_consecutive p.entries) vcs
    &&
    let srcs = List.map fst vcs in
    List.length (List.sort_uniq compare srcs) = List.length srcs
  then enter_new_view t ~new_view ~vcs

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)

let on_executed t ~seqno ~(batch : Message.batch) =
  if is_primary t then Pipeline.seqno_closed t.pipeline;
  Recovery.note_executed t.recovery ~seqno ~batch

let create_replica ctx =
  (* The record is built with throwaway components, then rewired with the
     real ones so their callbacks can close over [t]. *)
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
      slots = Hashtbl.create 1024;
      vc_store = Hashtbl.create 4;
      view = 0;
      status = Active;
      next_seqno = 0;
      vc_round = 0;
      nv_deadline = 0.0;
      nv_sent_for = 0;
      last_nv = None;
      nv_requested_for = 0;
    }
  in
  t.exec <-
    Exec.create ~ctx
      ~on_executed:(fun ~seqno ~batch ~result:_ -> on_executed t ~seqno ~batch)
      ();
  t.pipeline <- Pipeline.create ~ctx ~on_batch:(fun batch -> propose_batch t batch) ();
  t.recovery <-
    Recovery.create ~ctx ~exec:t.exec
      ~primary:(fun () -> primary_of t t.view)
      ~active:(fun () -> not (in_view_change t))
      ~on_suspect:(fun () -> initiate_view_change t ~from_view:t.view)
      ~on_stable:(fun seqno ->
        Hashtbl.iter
          (fun key _ ->
            if slot_key_seqno key <= seqno then Hashtbl.remove t.slots key)
          (Hashtbl.copy t.slots))
      ();
  t

let start_replica t = Recovery.start t.recovery

let force_suspect t =
  if not (in_view_change t) then initiate_view_change t ~from_view:t.view

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
    | Vc_request { payload } -> on_vc_request t ~src ~payload
    | Nv_propose { new_view; vcs } -> on_nv_propose t ~src ~new_view ~vcs
    | Nv_request { view } -> on_nv_request t ~src ~view
    | _ -> ()

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
      | Vc_request _ | Nv_propose _ | Nv_request _ ->
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
