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

let name = "pbft"

module Metrics = Poe_obs.Metrics

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
  | View_change of { payload : vc_payload }
  | New_view of { new_view : int; vcs : (int * vc_payload) list }

type slot = {
  mutable batch : Message.batch option;
  mutable digest : string option; (* digest of the accepted pre-prepare *)
  prepares : (int, string) Hashtbl.t;
  commits : (int, string) Hashtbl.t;
  mutable prepared : bool;
  mutable commit_sent : bool;
  mutable committed : bool;
  mutable offered : bool;
}

type status = Active | In_view_change of int

type replica = {
  ctx : Ctx.t;
  mutable exec : Exec.t;
  mutable pipeline : Pipeline.t;
  mutable recovery : Recovery.t;
  slots : (int, slot) Hashtbl.t;
      (* keyed by (view, seqno) packed into one int: view lsl 40 lor seqno *)
  vc_store : (int, (int, vc_payload) Hashtbl.t) Hashtbl.t;
  mutable view : int;
  mutable status : status;
  mutable next_seqno : int;
  mutable vc_round : int;
  mutable nv_deadline : float;
  mutable nv_sent_for : int;
}

let ctx t = t.ctx
let current_view t = t.view
let view_of = current_view
let k_exec t = Exec.k_exec t.exec

let in_view_change t =
  match t.status with Active -> false | In_view_change _ -> true

let cfg t = Ctx.config t.ctx
let costs t = Ctx.cost t.ctx
let nf t = Config.nf (cfg t)
let fq t = Config.f (cfg t)
let is_primary t = Ctx.is_primary_of t.ctx t.view
let active_in t view = not (in_view_change t) && view = t.view

let tr_phase t ~view ~seqno phase =
  Ctx.trace_phase t.ctx ~cat:name ~view ~seqno phase

let tr_instant t what = Ctx.trace_instant t.ctx ~cat:name ~view:t.view what

let slot_digest ~view ~seqno ~batch_digest =
  Printf.sprintf "%d|%d|" seqno view ^ batch_digest

let slot_key ~view ~seqno = (view lsl 40) lor seqno
let slot_key_view key = key lsr 40
let slot_key_seqno key = key land ((1 lsl 40) - 1)

let slot_of t ~view ~seqno =
  match Hashtbl.find_opt t.slots (slot_key ~view ~seqno) with
  | Some s -> s
  | None ->
      let s =
        {
          batch = None;
          digest = None;
          prepares = Hashtbl.create 8;
          commits = Hashtbl.create 8;
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
      let proof =
        Block.Vote_certificate
          (Hashtbl.fold (fun id _ acc -> id :: acc) slot.commits [])
      in
      Exec.offer t.exec ~seqno ~view ~batch ~proof
  | Some _ | None -> ()

(* Commit quorum: nf matching COMMITs (counting our own). *)
let try_commit t ~view ~seqno slot =
  match slot.digest with
  | Some digest when slot.prepared && not slot.committed ->
      let matching =
        Hashtbl.fold
          (fun _ d acc -> if String.equal d digest then acc + 1 else acc)
          slot.commits 0
      in
      if matching >= nf t then begin
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
      let matching =
        Hashtbl.fold
          (fun _ d acc -> if String.equal d digest then acc + 1 else acc)
          slot.prepares 0
      in
      if matching >= nf t then begin
        slot.prepared <- true;
        tr_phase t ~view ~seqno "prepare";
        if not slot.commit_sent then begin
          slot.commit_sent <- true;
          let c = costs t in
          let sign = Cost.auth_sign c (cfg t).Config.replica_scheme in
          Ctx.work t.ctx Server.Worker ~cost:sign (fun () ->
              Ctx.broadcast_replicas t.ctx ~bytes:Message.Wire.vote
                (Commit { view; seqno; digest });
              Hashtbl.replace slot.commits (Ctx.id t.ctx) digest;
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
  Hashtbl.replace slot.prepares (Config.primary_of_view (cfg t) view) digest;
  if not (Ctx.is_primary_of t.ctx view) then begin
    Hashtbl.replace slot.prepares (Ctx.id t.ctx) digest;
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
  let view = t.view in
  Hashtbl.iter
    (fun key slot ->
      if slot_key_view key = view then
        activate_slot t ~view ~seqno:(slot_key_seqno key) slot)
    (Hashtbl.copy t.slots)

let on_preprepare t ~src ~view ~seqno (batch : Message.batch) =
  if
    view >= t.view
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
  if view >= t.view then begin
    let slot = slot_of t ~view ~seqno in
    if not (Hashtbl.mem slot.prepares src) then begin
      Hashtbl.replace slot.prepares src digest;
      if active_in t view then try_prepare t ~view ~seqno slot
    end
  end

let on_commit t ~src ~view ~seqno ~digest =
  if view >= t.view then begin
    let slot = slot_of t ~view ~seqno in
    if not (Hashtbl.mem slot.commits src) then begin
      Hashtbl.replace slot.commits src digest;
      if active_in t view then try_commit t ~view ~seqno slot
    end
  end

(* Primary: assign the next sequence number and pre-prepare the batch. *)
let propose_batch t (batch : Message.batch) =
  if Ctx.alive t.ctx && not (in_view_change t) && is_primary t then begin
    let seqno = t.next_seqno in
    t.next_seqno <- seqno + 1;
    let view = t.view in
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

let vc_bucket t from_view =
  match Hashtbl.find_opt t.vc_store from_view with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace t.vc_store from_view h;
      h

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

let entries_consecutive entries =
  let rec go = function
    | [] | [ _ ] -> true
    | (a : Message.exec_entry) :: (b :: _ as rest) ->
        b.Message.e_seqno = a.Message.e_seqno + 1 && go rest
  in
  go entries

let nv_deadline_for t =
  (cfg t).Config.view_timeout *. float_of_int (1 lsl min t.vc_round 6)

let rec initiate_view_change t ~from_view =
  let already =
    match t.status with In_view_change v -> v >= from_view | Active -> false
  in
  if (not already) && from_view >= t.view then begin
    tr_instant t "view_change";
    if Metrics.enabled () then Metrics.cincr "pbft.view_changes";
    t.status <- In_view_change from_view;
    t.nv_deadline <- Ctx.now t.ctx +. nv_deadline_for t;
    t.vc_round <- t.vc_round + 1;
    let payload = my_vc_payload t ~from_view in
    let bytes =
      Message.Wire.view_change (cfg t)
        ~entries:(List.length payload.executed + List.length payload.prepared)
    in
    Ctx.broadcast_replicas t.ctx ~bytes (View_change { payload });
    Hashtbl.replace (vc_bucket t from_view) (Ctx.id t.ctx) payload;
    maybe_new_view t ~from_view;
    let this_deadline = t.nv_deadline in
    Ctx.schedule t.ctx ~delay:(this_deadline -. Ctx.now t.ctx) (fun () ->
        match t.status with
        | In_view_change v when v = from_view && t.nv_deadline = this_deadline ->
            initiate_view_change t ~from_view:(from_view + 1)
        | In_view_change _ | Active -> ())
  end

and maybe_new_view t ~from_view =
  let new_view = from_view + 1 in
  if
    Config.primary_of_view (cfg t) new_view = Ctx.id t.ctx
    && t.nv_sent_for < new_view
  then begin
    let bucket = vc_bucket t from_view in
    let valid =
      Hashtbl.fold
        (fun src p acc ->
          if entries_consecutive p.executed then (src, p) :: acc else acc)
        bucket []
    in
    if List.length valid >= nf t then begin
      t.nv_sent_for <- new_view;
      let vcs =
        List.sort (fun (a, _) (b, _) -> compare a b) valid
        |> List.filteri (fun i _ -> i < nf t)
      in
      let total =
        List.fold_left
          (fun acc (_, p) ->
            acc + List.length p.executed + List.length p.prepared)
          0 vcs
      in
      Ctx.broadcast_replicas t.ctx
        ~bytes:(Message.Wire.view_change (cfg t) ~entries:total)
        (New_view { new_view; vcs });
      enter_new_view t ~new_view ~vcs
    end
  end

and on_view_change t ~src ~payload =
  if payload.from_view >= t.view - 1 && entries_consecutive payload.executed
  then begin
    let bucket = vc_bucket t payload.from_view in
    Hashtbl.replace bucket src payload;
    (if not (in_view_change t) && payload.from_view = t.view then
       if Hashtbl.length bucket >= fq t + 1 then
         initiate_view_change t ~from_view:t.view);
    match t.status with
    | In_view_change v when v = payload.from_view -> maybe_new_view t ~from_view:v
    | In_view_change _ | Active -> ()
  end

and enter_new_view t ~new_view ~vcs =
  (* PBFT execution is non-speculative, so adoption only ever fast-forwards
     (no rollback): adopt the longest executed prefix, then re-run
     consensus in the new view for every prepared-but-unexecuted slot. *)
  let best =
    List.fold_left
      (fun acc (_, p) ->
        match acc with
        | Some b when b.exec_upto >= p.exec_upto -> acc
        | _ -> Some p)
      None vcs
  in
  let kmax = match best with Some p -> p.exec_upto | None -> -1 in
  (match best with
  | None -> ()
  | Some p ->
      List.iter
        (fun (e : Message.exec_entry) ->
          if e.e_seqno = Exec.k_exec t.exec + 1 then
            Exec.force_adopt t.exec ~seqno:e.e_seqno ~view:e.e_view
              ~batch:e.e_batch ~proof:(Block.Vote_certificate []))
        p.executed);
  (* Highest-view prepared entry per seqno above kmax must be re-proposed
     (Castro-Liskov's O computation). *)
  let reproposals = Hashtbl.create 16 in
  List.iter
    (fun ((_, p) : int * vc_payload) ->
      List.iter
        (fun (e : Message.exec_entry) ->
          if e.e_seqno > kmax then
            match Hashtbl.find_opt reproposals e.e_seqno with
            | Some (prev : Message.exec_entry) when prev.e_view >= e.e_view -> ()
            | Some _ | None -> Hashtbl.replace reproposals e.e_seqno e)
        p.prepared)
    vcs;
  t.view <- new_view;
  t.status <- Active;
  t.vc_round <- 0;
  tr_instant t "new_view";
  if Metrics.enabled () then Metrics.cincr "pbft.new_views";
  let max_reproposed =
    Hashtbl.fold (fun s _ acc -> max s acc) reproposals kmax
  in
  t.next_seqno <- max_reproposed + 1;
  Hashtbl.iter
    (fun key _ -> if slot_key_view key < new_view then Hashtbl.remove t.slots key)
    (Hashtbl.copy t.slots);
  (* The new primary re-proposes the prepared slots at their original
     sequence numbers (with a fresh watermark window: slots opened in the
     dead view will never close). *)
  if is_primary t then begin
    Pipeline.reset_window t.pipeline;
    (* Gaps between kmax and the highest prepared slot get null batches
       (the "null request" of the O computation): a slot no payload
       prepared can never close otherwise, and execution would park behind
       it forever. *)
    let entries =
      List.init (max_reproposed - kmax) (fun i ->
          let seqno = kmax + 1 + i in
          match Hashtbl.find_opt reproposals seqno with
          | Some e -> e
          | None ->
              {
                Message.e_seqno = seqno;
                e_view = new_view;
                e_batch =
                  {
                    Message.digest = Printf.sprintf "pbft-null-%d" seqno;
                    reqs = [||];
                  };
              })
    in
    List.iter
      (fun (e : Message.exec_entry) ->
        Ctx.broadcast_replicas t.ctx
          ~bytes:(Message.Wire.propose (cfg t))
          (Preprepare { view = new_view; seqno = e.e_seqno; batch = e.e_batch });
        let slot = slot_of t ~view:new_view ~seqno:e.e_seqno in
        accept_preprepare t ~view:new_view ~seqno:e.e_seqno slot e.e_batch)
      entries;
    (* Requests in a re-proposed prepared batch are already on their way
       back through consensus, but [Exec.was_executed] stays false for
       them until the slot re-commits: mark them proposed in the pipeline
       so neither the watched backlog below nor a client retransmission
       arriving during that window gets them proposed a second time at a
       fresh seqno — both slots would commit, executing the requests
       twice. *)
    Hashtbl.iter
      (fun _ (e : Message.exec_entry) ->
        Array.iter (Pipeline.mark_proposed t.pipeline) e.e_batch.Message.reqs)
      reproposals;
    List.iter
      (fun req ->
        if not (Exec.was_executed t.exec req) then
          Pipeline.add_request t.pipeline req)
      (Recovery.watched_requests t.recovery)
  end
  else Recovery.refresh_watches t.recovery;
  activate_pending_slots t

and on_new_view t ~src ~new_view ~vcs =
  if
    new_view > t.view
    && src = Config.primary_of_view (cfg t) new_view
    && List.length vcs >= nf t
    && List.for_all (fun (_, p) -> entries_consecutive p.executed) vcs
    &&
    let srcs = List.map fst vcs in
    List.length (List.sort_uniq compare srcs) = List.length srcs
  then enter_new_view t ~new_view ~vcs

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)

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
      slots = Hashtbl.create 1024;
      vc_store = Hashtbl.create 4;
      view = 0;
      status = Active;
      next_seqno = 0;
      vc_round = 0;
      nv_deadline = 0.0;
      nv_sent_for = 0;
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
      ~primary:(fun () -> Config.primary_of_view (cfg t) t.view)
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
    | Preprepare { view; seqno; batch } -> on_preprepare t ~src ~view ~seqno batch
    | Prepare { view; seqno; digest } -> on_prepare t ~src ~view ~seqno ~digest
    | Commit { view; seqno; digest } -> on_commit t ~src ~view ~seqno ~digest
    | View_change { payload } -> on_view_change t ~src ~payload
    | New_view { new_view; vcs } -> on_new_view t ~src ~new_view ~vcs
    | _ -> ()

let receive_cost ~src config cost msg =
  match R.Protocol_intf.client_receive_cost ~src config cost msg with
  | Some c -> c
  | None -> (
      let base = cost.Cost.msg_in in
      match msg with
      | Preprepare _ | Prepare _ | Commit _ ->
          base +. Cost.auth_verify cost config.Config.replica_scheme
      | View_change _ | New_view _ -> base +. cost.Cost.ds_verify
      | _ -> base)

let hub_hooks config =
  {
    (* PBFT clients accept f+1 matching responses (§IV-A). *)
    Hub.quorum = Config.f config + 1;
    send_mode = Hub.To_primary;
    on_timeout = None;
    on_message = None;
  }
