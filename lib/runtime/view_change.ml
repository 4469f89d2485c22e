module Ctx = Replica_ctx
module Prof = Poe_prof.Prof

type status = Active | In_view_change of int

type 'c t = {
  ctx : Ctx.t;
  name : string;
  mutable view : int;
  mutable status : status;
  store : (int, (int, 'c) Hashtbl.t) Hashtbl.t;
  mutable round : int;
  mutable nv_deadline : float;
  mutable nv_sent_for : int;
  mutable last_nv : (int * (int * 'c) list) option;
}

type Message.t += Nv_request of { view : int }

let create ctx ~name =
  {
    ctx;
    name;
    view = 0;
    status = Active;
    store = Hashtbl.create 4;
    round = 0;
    nv_deadline = 0.0;
    nv_sent_for = 0;
    last_nv = None;
  }

let in_view_change t =
  match t.status with Active -> false | In_view_change _ -> true

let active_in t view = (not (in_view_change t)) && view = t.view

let nv_deadline_for t =
  (Ctx.config t.ctx).Config.view_timeout *. float_of_int (1 lsl min t.round 6)

let entries_consecutive ~upto entries =
  let rec go = function
    | [] -> true
    | [ (last : Message.exec_entry) ] -> last.Message.e_seqno = upto
    | (a : Message.exec_entry) :: (b :: _ as rest) ->
        b.Message.e_seqno = a.Message.e_seqno + 1 && go rest
  in
  go entries

(* Traffic for a view beyond ours means an NV-PROPOSE exists that we have
   not processed — out-of-order delivery, or the NV was lost. Stashing
   covers reordering; asking the sender to retransmit the NV covers loss,
   without which a replica could be stranded on a stale speculative prefix
   forever. No rate limit beyond one-per-received-message: the
   retransmission can itself be lost, and ahead-of-view traffic is what
   tells us to retry. *)
let request_nv t ~src ~view =
  if view > t.view then
    Ctx.send_replica t.ctx ~dst:src ~bytes:Message.Wire.vote
      (Nv_request { view })

let install t ~new_view vcs =
  t.view <- new_view;
  t.status <- Active;
  t.round <- 0;
  Ctx.trace_instant t.ctx ~cat:t.name ~view:new_view "new_view";
  Prof.(bump ix_new_views);
  t.last_nv <- Some (new_view, vcs)

(* ------------------------------------------------------------------ *)
(* Building blocks of the adopt rules                                  *)

let longest ~by vcs =
  List.fold_left
    (fun acc (_, c) ->
      match acc with Some b when by b >= by c -> acc | _ -> Some c)
    None vcs

let adopt_in_order exec entries =
  List.iter
    (fun (e : Message.exec_entry) ->
      if e.e_seqno = Exec_engine.k_exec exec + 1 then
        Exec_engine.force_adopt exec ~seqno:e.e_seqno ~view:e.e_view
          ~batch:e.e_batch ~proof:(Poe_ledger.Block.Vote_certificate []))
    entries

let reconcile exec ~floor ~upto entries =
  let target = max upto floor in
  if Exec_engine.k_exec exec > target then
    ignore (Exec_engine.rollback_to exec ~seqno:target);
  (* Certified-but-unexecuted slots of the dead view are abandoned, not
     adopted: drop them before they can execute behind a filled gap. *)
  Exec_engine.abandon_unexecuted exec;
  (* Roll back to just before the first entry where our speculative
     history diverges from the adopted prefix, then re-execute. *)
  let diverges (e : Message.exec_entry) =
    e.e_seqno <= Exec_engine.k_exec exec
    &&
    match Exec_engine.executed_batch exec e.e_seqno with
    | Some b -> not (String.equal b.Message.digest e.e_batch.Message.digest)
    | None -> false
  in
  (match List.find_opt diverges entries with
  | Some e ->
      (* Same floor as above: a divergence at or below the stable
         checkpoint can only come from a stale summary. *)
      let to_seqno = max (e.e_seqno - 1) floor in
      if Exec_engine.k_exec exec > to_seqno then
        ignore (Exec_engine.rollback_to exec ~seqno:to_seqno)
  | None -> ());
  adopt_in_order exec entries

let highest_view ~above lists =
  let best = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (e : Message.exec_entry) ->
         if e.e_seqno > above then
           match Hashtbl.find_opt best e.e_seqno with
           | Some (prev : Message.exec_entry) when prev.e_view >= e.e_view -> ()
           | Some _ | None -> Hashtbl.replace best e.e_seqno e))
    lists;
  best

let claim pipeline entries =
  List.iter
    (fun (e : Message.exec_entry) ->
      Array.iter (Pipeline.mark_proposed pipeline) e.e_batch.Message.reqs)
    entries

let repropose ~name ~new_view ~kmax ~upto reproposals ~propose pipeline =
  List.init (upto - kmax) (fun i ->
      let seqno = kmax + 1 + i in
      match Hashtbl.find_opt reproposals seqno with
      | Some e -> e
      | None ->
          {
            Message.e_seqno = seqno;
            e_view = new_view;
            e_batch =
              {
                Message.digest = Printf.sprintf "%s-null-%d" name seqno;
                reqs = [||];
                acks = [];
              };
          })
  |> List.iter propose;
  (* Requests in a re-proposed batch are on their way back through
     consensus, but [Exec_engine.was_executed] stays false for them until
     the slot re-commits: mark them proposed so neither the watched backlog
     nor a client retransmission arriving in that window gets them proposed
     a second time at a fresh seqno — both slots would commit, executing
     the requests twice. *)
  Hashtbl.iter (fun _ e -> claim pipeline [ e ]) reproposals

let resume_backlog ~primary ~exec ~pipeline ~recovery reclaim =
  if primary then begin
    (* Slots opened in the dead view will never close: fresh watermarks. *)
    Pipeline.reset_window pipeline;
    reclaim ();
    List.iter
      (fun req ->
        if not (Exec_engine.was_executed exec req) then
          Pipeline.add_request pipeline req)
      (Recovery.watched_requests recovery)
  end
  else Recovery.refresh_watches recovery

(* ------------------------------------------------------------------ *)
(* The skeleton                                                        *)

module type CERTIFICATE = sig
  type replica
  type cert

  val state : replica -> cert t
  val from_view : cert -> int
  val size : cert -> int
  val valid : cert -> bool
  val summarize : replica -> from_view:int -> cert
  val halt : replica -> from_view:int -> unit
  val adopt : replica -> new_view:int -> (int * cert) list -> unit
end

module Make (P : CERTIFICATE) = struct
  type Message.t +=
    | Vc_request of { payload : P.cert }
    | Nv_propose of { new_view : int; vcs : (int * P.cert) list }

  let vc_bucket t from_view =
    match Hashtbl.find_opt t.store from_view with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 8 in
        Hashtbl.replace t.store from_view h;
        h

  let wire_size t ~entries =
    Message.Wire.view_change (Ctx.config t.ctx) ~entries

  let total vcs = List.fold_left (fun acc (_, c) -> acc + P.size c) 0 vcs

  (* Halt the normal case for the current view and ask everyone to move
     past [from_view]. *)
  let rec initiate_view_change r ~from_view =
    let t = P.state r in
    let already_requested =
      match t.status with In_view_change v -> v >= from_view | Active -> false
    in
    if (not already_requested) && from_view >= t.view then begin
      Ctx.trace_instant t.ctx ~cat:t.name ~view:t.view "view_change";
      Prof.(bump ix_view_changes);
      (match t.status with
      | Active -> P.halt r ~from_view
      | In_view_change _ -> ());
      t.status <- In_view_change from_view;
      (* Timeout starts at δ and doubles with each consecutive view change
         (exponential backoff, proof of Theorem 7). *)
      t.nv_deadline <- Ctx.now t.ctx +. nv_deadline_for t;
      t.round <- t.round + 1;
      let payload = P.summarize r ~from_view in
      Ctx.broadcast_replicas t.ctx
        ~bytes:(wire_size t ~entries:(P.size payload))
        (Vc_request { payload });
      Hashtbl.replace (vc_bucket t from_view) (Ctx.id t.ctx) payload;
      maybe_new_view r ~from_view;
      let this_deadline = t.nv_deadline in
      Ctx.schedule t.ctx ~delay:(this_deadline -. Ctx.now t.ctx) (fun () ->
          match t.status with
          | In_view_change v when v = from_view && t.nv_deadline = this_deadline
            ->
              (* No valid NV-PROPOSE in time: suspect the next primary too. *)
              initiate_view_change r ~from_view:(from_view + 1)
          | In_view_change _ | Active -> ())
    end

  and maybe_new_view r ~from_view =
    let t = P.state r in
    let config = Ctx.config t.ctx in
    let new_view = from_view + 1 in
    if
      Config.primary_of_view config new_view = Ctx.id t.ctx
      && t.nv_sent_for < new_view
    then begin
      let valid =
        Hashtbl.fold
          (fun src c acc -> if P.valid c then (src, c) :: acc else acc)
          (vc_bucket t from_view) []
      in
      let nf = Config.nf config in
      if List.length valid >= nf then begin
        t.nv_sent_for <- new_view;
        let vcs =
          (* Any nf valid requests suffice (Fig. 5, nv-propose). *)
          List.sort (fun (a, _) (b, _) -> compare a b) valid
          |> List.filteri (fun i _ -> i < nf)
        in
        Ctx.broadcast_replicas t.ctx ~bytes:(wire_size t ~entries:(total vcs))
          (Nv_propose { new_view; vcs });
        P.adopt r ~new_view vcs
      end
    end

  let on_vc_request r ~src payload =
    let t = P.state r in
    let from_view = P.from_view payload in
    if from_view >= t.view - 1 && P.valid payload then begin
      let bucket = vc_bucket t from_view in
      Hashtbl.replace bucket src payload;
      (* Join rule: f+1 distinct view-change requests for the current view
         prove some non-faulty replica detected a failure (Fig. 5 line 8). *)
      if
        (not (in_view_change t))
        && from_view = t.view
        && Hashtbl.length bucket >= Config.f (Ctx.config t.ctx) + 1
      then initiate_view_change r ~from_view:t.view;
      match t.status with
      | In_view_change v when v = from_view -> maybe_new_view r ~from_view:v
      | In_view_change _ | Active -> ()
    end

  let on_nv_propose r ~src ~new_view vcs =
    let t = P.state r in
    let config = Ctx.config t.ctx in
    if
      new_view > t.view
      && src = Config.primary_of_view config new_view
      && List.length vcs >= Config.nf config
      && List.for_all (fun (_, c) -> P.valid c) vcs
      &&
      let srcs = List.map fst vcs in
      List.length (List.sort_uniq compare srcs) = List.length srcs
    then P.adopt r ~new_view vcs

  let on_nv_request r ~src ~view =
    let t = P.state r in
    match t.last_nv with
    | Some (new_view, vcs) when new_view >= view ->
        Ctx.send_replica t.ctx ~dst:src
          ~bytes:(wire_size t ~entries:(total vcs))
          (Nv_propose { new_view; vcs })
    | Some _ | None -> ()

  let on_message r ~src = function
    | Vc_request { payload } -> on_vc_request r ~src payload
    | Nv_propose { new_view; vcs } -> on_nv_propose r ~src ~new_view vcs
    | Nv_request { view } -> on_nv_request r ~src ~view
    | _ -> ()

  let force_suspect r =
    let t = P.state r in
    if not (in_view_change t) then initiate_view_change r ~from_view:t.view
end
