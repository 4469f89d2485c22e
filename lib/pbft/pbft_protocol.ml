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

let name = "pbft"

type vc_payload = {
  from_view : int;
  exec_upto : int;
  executed : Message.exec_entry list;
      (* consecutive executed entries above the stable checkpoint *)
  prepared : Message.exec_entry list;
      (* prepared-but-not-executed slots, which the new primary must
         re-propose (the "P" sets of Castro-Liskov's VIEW-CHANGE) *)
}

type Message.t +=
  | Preprepare of { view : int; seqno : int; batch : Message.batch }
  | Prepare of { view : int; seqno : int; digest : string }
  | Commit of { view : int; seqno : int; digest : string }

type slot = {
  mutable batch : Message.batch option;
  mutable digest : string option; (* digest of the accepted pre-prepare *)
  prepares : Quorum.t;
  commits : Quorum.t;
  mutable prepared : bool;
  mutable commit_sent : bool;
  mutable committed : bool;
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
  mutable next_seqno : int;
}

let ctx t = t.ctx
let current_view t = t.vc.view
let view_of = current_view
let k_exec t = Exec.k_exec t.exec

let in_view_change t = V.in_view_change t.vc

let cfg t = Ctx.config t.ctx
let costs t = Ctx.cost t.ctx
let nf t = Config.nf (cfg t)
let is_primary t = Ctx.is_primary_of t.ctx t.vc.view
let active_in t view = V.active_in t.vc view

let tr_phase t ~view ~seqno phase =
  Ctx.trace_phase t.ctx ~cat:name ~view ~seqno phase

let slot_digest ~view ~seqno ~batch_digest =
  String.concat "|" [ string_of_int seqno; string_of_int view; batch_digest ]

let slot_key ~view ~seqno = (view lsl 40) lor seqno
let slot_key_view key = key lsr 40
let slot_key_seqno key = key land ((1 lsl 40) - 1)

(* [find] rather than [find_opt]: a hit, once per vote, boxes nothing. *)
let slot_of t ~view ~seqno =
  match Hashtbl.find t.slots (slot_key ~view ~seqno) with
  | s -> s
  | exception Not_found ->
      let s =
        {
          batch = None;
          digest = None;
          prepares = Quorum.create (cfg t).Config.n;
          commits = Quorum.create (cfg t).Config.n;
          prepared = false;
          commit_sent = false;
          committed = false;
          offered = false;
        }
      in
      Hashtbl.replace t.slots (slot_key ~view ~seqno) s;
      s

let maybe_offer t ~view ~seqno slot =
  match slot.batch with
  | Some batch when slot.committed && not slot.offered ->
      slot.offered <- true;
      Exec.offer t.exec ~seqno ~view ~batch
        ~proof:(Ctx.vote_certificate t.ctx slot.commits)
  | Some _ | None -> ()

(* Commit quorum: nf matching COMMITs (counting our own). *)
let try_commit t ~view ~seqno slot =
  match slot.digest with
  | Some digest when slot.prepared && not slot.committed ->
      if Quorum.count slot.commits digest >= nf t then begin
        slot.committed <- true;
        tr_phase t ~view ~seqno "commit";
        maybe_offer t ~view ~seqno slot
      end
  | Some _ | None -> ()

(* Prepared: nf matching PREPAREs, the primary's pre-prepare counting as
   its prepare. Then broadcast COMMIT. *)
let try_prepare t ~view ~seqno slot =
  match slot.digest with
  | Some digest when not slot.prepared ->
      if Quorum.count slot.prepares digest >= nf t then begin
        slot.prepared <- true;
        tr_phase t ~view ~seqno "prepare";
        if not slot.commit_sent then begin
          slot.commit_sent <- true;
          let c = costs t in
          let sign = Cost.auth_sign c (cfg t).Config.replica_scheme in
          Ctx.work t.ctx Server.Worker ~cost:sign (fun () ->
              Ctx.broadcast_replicas t.ctx ~bytes:Message.Wire.vote
                (Commit { view; seqno; digest });
              ignore (Quorum.replace slot.commits ~src:(Ctx.id t.ctx) ~digest);
              try_commit t ~view ~seqno slot)
        end
      end
  | Some _ | None -> ()

(* Accept a pre-prepare: record it, send our PREPARE. *)
let accept_preprepare t ~view ~seqno slot (batch : Message.batch) =
  tr_phase t ~view ~seqno "propose";
  let digest = slot_digest ~view ~seqno ~batch_digest:batch.Message.digest in
  slot.batch <- Some batch;
  slot.digest <- Some digest;
  (* The primary's pre-prepare stands in for its prepare. *)
  ignore
    (Quorum.replace slot.prepares ~src:(Config.primary_of_view (cfg t) view)
       ~digest);
  if not (Ctx.is_primary_of t.ctx view) then begin
    ignore (Quorum.replace slot.prepares ~src:(Ctx.id t.ctx) ~digest);
    let c = costs t in
    let cpu =
      Cost.hash_cost c ~bytes:(Message.Wire.propose (cfg t))
      +. Cost.auth_sign c (cfg t).Config.replica_scheme
    in
    Ctx.work t.ctx Server.Worker ~cost:cpu (fun () ->
        Ctx.broadcast_replicas t.ctx ~bytes:Message.Wire.vote
          (Prepare { view; seqno; digest });
        try_prepare t ~view ~seqno slot)
  end;
  try_prepare t ~view ~seqno slot

let activate_slot t ~view ~seqno slot =
  match (slot.batch, slot.digest) with
  | Some batch, None -> accept_preprepare t ~view ~seqno slot batch
  | (Some _ | None), _ -> ()

let activate_pending_slots t =
  let view = t.vc.view in
  Hashtbl.iter
    (fun key slot ->
      if slot_key_view key = view then
        activate_slot t ~view ~seqno:(slot_key_seqno key) slot)
    (Hashtbl.copy t.slots)

let on_preprepare t ~src ~view ~seqno (batch : Message.batch) =
  if
    view >= t.vc.view
    && src = Config.primary_of_view (cfg t) view
    && not (Ctx.is_primary_of t.ctx view)
  then begin
    let slot = slot_of t ~view ~seqno in
    if slot.batch = None then begin
      slot.batch <- Some batch;
      if active_in t view then activate_slot t ~view ~seqno slot
    end
  end

let on_prepare t ~src ~view ~seqno ~digest =
  if view >= t.vc.view then begin
    let slot = slot_of t ~view ~seqno in
    if Quorum.add slot.prepares ~src ~digest = Quorum.Added && active_in t view
    then try_prepare t ~view ~seqno slot
  end

let on_commit t ~src ~view ~seqno ~digest =
  if view >= t.vc.view then begin
    let slot = slot_of t ~view ~seqno in
    if Quorum.add slot.commits ~src ~digest = Quorum.Added && active_in t view
    then try_commit t ~view ~seqno slot
  end

(* Primary: assign the next sequence number and pre-prepare the batch. *)
let propose_batch t (batch : Message.batch) =
  if Ctx.alive t.ctx && not (in_view_change t) && is_primary t then begin
    let seqno = t.next_seqno in
    t.next_seqno <- seqno + 1;
    let view = t.vc.view in
    (match Ctx.behavior t.ctx with
    | Ctx.Honest ->
        Ctx.broadcast_replicas t.ctx
          ~bytes:(Message.Wire.propose (cfg t))
          (Preprepare { view; seqno; batch })
    | Ctx.Silent | Ctx.Stop_proposing -> ()
    | Ctx.Keep_in_dark dark ->
        let dsts =
          List.init (cfg t).Config.n (fun i -> i)
          |> List.filter (fun i -> i <> Ctx.id t.ctx && not (List.mem i dark))
        in
        Ctx.broadcast_to t.ctx ~dsts
          ~bytes:(Message.Wire.propose (cfg t))
          (Preprepare { view; seqno; batch })
    | Ctx.Equivocate ->
        (* PBFT's prepare quorums make equivocation unproductive, but the
           behaviour is still injectable for tests. *)
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
        Ctx.broadcast_to t.ctx ~dsts:left ~bytes (Preprepare { view; seqno; batch });
        Ctx.broadcast_to t.ctx ~dsts:right ~bytes
          (Preprepare { view; seqno; batch = forged }));
    let slot = slot_of t ~view ~seqno in
    accept_preprepare t ~view ~seqno slot batch
  end

let on_client_request t (req : Message.request) =
  if Exec.was_executed t.exec req then ()
  else if not (in_view_change t) && is_primary t then
    Pipeline.add_request t.pipeline req
  else Recovery.watch t.recovery req

(* ------------------------------------------------------------------ *)
(* View change                                                         *)

(* Prepared-but-unexecuted slots of the current view, for the VIEW-CHANGE
   message's P sets. *)
let prepared_entries t =
  Hashtbl.fold
    (fun key slot acc ->
      let seqno = slot_key_seqno key in
      match slot.batch with
      | Some batch when slot.prepared && seqno > Exec.k_exec t.exec ->
          { Message.e_seqno = seqno; e_view = slot_key_view key; e_batch = batch }
          :: acc
      | Some _ | None -> acc)
    t.slots []
  |> List.sort (fun a b -> compare a.Message.e_seqno b.Message.e_seqno)

let my_vc_payload t ~from_view =
  let executed =
    Exec.executed_since t.exec (Exec.stable t.exec)
    |> List.map (fun (e_seqno, e_view, e_batch) ->
           { Message.e_seqno; e_view; e_batch })
  in
  { from_view; exec_upto = Exec.k_exec t.exec; executed;
    prepared = prepared_entries t }

let adopt t ~new_view vcs =
  (* PBFT execution is non-speculative, so adoption only ever fast-forwards
     (no rollback): adopt the longest executed prefix, then re-run
     consensus in the new view for every prepared-but-unexecuted slot. *)
  let best = V.longest ~by:(fun (p : vc_payload) -> p.exec_upto) vcs in
  let kmax = match best with Some p -> p.exec_upto | None -> -1 in
  V.adopt_in_order t.exec (match best with Some p -> p.executed | None -> []);
  (* Highest-view prepared entry per seqno above kmax must be re-proposed
     (Castro-Liskov's O computation). *)
  let reproposals =
    V.highest_view ~above:kmax
      (List.map (fun ((_, p) : int * vc_payload) -> p.prepared) vcs)
  in
  V.install t.vc ~new_view vcs;
  let max_reproposed =
    Hashtbl.fold (fun s _ acc -> max s acc) reproposals kmax
  in
  t.next_seqno <- max_reproposed + 1;
  Hashtbl.filter_map_inplace
    (fun key v -> if slot_key_view key < new_view then None else Some v)
    t.slots;
  (* The new primary re-proposes the prepared slots at their original
     sequence numbers. Gaps between kmax and the highest prepared slot get
     null batches (the "null request" of the O computation): a slot no
     payload prepared can never close otherwise, and execution would park
     behind it forever. *)
  V.resume_backlog ~primary:(is_primary t) ~exec:t.exec ~pipeline:t.pipeline
    ~recovery:t.recovery (fun () ->
      V.repropose ~name ~new_view ~kmax ~upto:max_reproposed reproposals
        t.pipeline ~propose:(fun (e : Message.exec_entry) ->
          Ctx.broadcast_replicas t.ctx
            ~bytes:(Message.Wire.propose (cfg t))
            (Preprepare
               { view = new_view; seqno = e.e_seqno; batch = e.e_batch });
          let slot = slot_of t ~view:new_view ~seqno:e.e_seqno in
          accept_preprepare t ~view:new_view ~seqno:e.e_seqno slot e.e_batch));
  activate_pending_slots t

module Vc = V.Make (struct
  type nonrec replica = replica
  type cert = vc_payload

  let state t = t.vc
  let from_view (p : vc_payload) = p.from_view
  let size (p : vc_payload) = List.length p.executed + List.length p.prepared
  let valid (p : vc_payload) =
    V.entries_consecutive ~upto:p.exec_upto p.executed
  let summarize = my_vc_payload
  let halt _ ~from_view:_ = ()
  let adopt = adopt
end)

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)

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
          ~primary:(fun () -> let t = me () in Config.primary_of_view (cfg t) t.vc.view)
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
    | Preprepare { view; seqno; batch } -> on_preprepare t ~src ~view ~seqno batch
    | Prepare { view; seqno; digest } -> on_prepare t ~src ~view ~seqno ~digest
    | Commit { view; seqno; digest } -> on_commit t ~src ~view ~seqno ~digest
    | msg -> Vc.on_message t ~src msg

let receive_cost ~src config cost msg =
  match R.Protocol_intf.client_receive_cost ~src config cost msg with
  | Some c -> c
  | None -> (
      let base = cost.Cost.msg_in in
      match msg with
      | Preprepare _ | Prepare _ | Commit _ ->
          base +. Cost.auth_verify cost config.Config.replica_scheme
      | Vc.Vc_request _ | Vc.Nv_propose _ -> base +. cost.Cost.ds_verify
      | _ -> base)

let hub_hooks config =
  {
    (* PBFT clients accept f+1 matching responses (§IV-A). *)
    Hub.quorum = Config.f config + 1;
    send_mode = Hub.To_primary;
    on_timeout = None;
    on_message = None;
  }
