module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Rng = Poe_simnet.Rng
module Ycsb = Poe_store.Ycsb

type request_state = {
  req : Message.request;
  mutable responses : (int * (int * int * string)) list;
  mutable first_sent : float;
  mutable retries : int;
  mutable next_deadline : float;
}

type send_mode = To_primary | To_all

type hooks = {
  quorum : int;
  send_mode : send_mode;
  on_timeout : (t -> request_state -> unit) option;
  on_message : (t -> src:int -> Message.t -> bool) option;
}

and t = {
  hub : int;
  config : Config.t;
  engine : Engine.t;
  net : Message.t Network.t;
  stats : Stats.t;
  rng : Rng.t;
  workload : Ycsb.t option;
  hooks : hooks;
  slots : request_state array;
      (* the outstanding request of each logical client, [idle] if none:
         a closed-loop client has at most one *)
  mutable live : int; (* slots that are not [idle] *)
  next_rid : int array;
  mutable believed_view : int;
  mutable out_buffer : Message.request list; (* newest first *)
  mutable out_count : int;
  mutable flush_scheduled : bool;
  mutable forward_buffer : Message.request list;
  mutable forward_scheduled : bool;
  mutable completed : int;
  mutable paused : bool;
}

(* The empty slot. Shared by every hub and never mutated: nothing reaches
   it except through a slot, and every slot access checks for it first. *)
let idle =
  {
    req = { Message.hub = -1; client = -1; rid = -1; op = None; submitted = 0.0 };
    responses = [];
    first_sent = 0.0;
    retries = 0;
    next_deadline = infinity;
  }

let create ~hub ~config ~engine ~net ~stats ~rng ~workload ~hooks () =
  {
    hub;
    config;
    engine;
    net;
    stats;
    rng;
    workload;
    hooks;
    slots = Array.make config.Config.clients_per_hub idle;
    live = 0;
    next_rid = Array.make config.Config.clients_per_hub 0;
    believed_view = 0;
    out_buffer = [];
    out_count = 0;
    flush_scheduled = false;
    forward_buffer = [];
    forward_scheduled = false;
    completed = 0;
    paused = false;
  }

let hub_index t = t.hub
let node_id t = t.config.Config.n + t.hub
let believed_view t = t.believed_view
let outstanding t = t.live
let completed t = t.completed

let oldest_outstanding_age t ~now =
  let oldest = ref 0.0 in
  for client = 0 to Array.length t.slots - 1 do
    let rs = t.slots.(client) in
    if rs != idle then oldest := Float.max !oldest (now -. rs.first_sent)
  done;
  !oldest

let config t = t.config
let now t = Engine.now t.engine

let send_to_replica t ~dst ~bytes msg =
  Network.send t.net ~src:(node_id t) ~dst ~bytes msg

let broadcast_replicas t ~bytes msg =
  for dst = 0 to t.config.Config.n - 1 do
    send_to_replica t ~dst ~bytes msg
  done

let primary t = Config.primary_of_view t.config t.believed_view

(* Exponential retransmission backoff with seeded jitter: the deadline
   doubles with each retry (capped at 64x so requests still recover within
   liveness-test horizons) and is stretched by up to 25% per draw, so a
   heavy-loss episode de-synchronizes the retransmissions of thousands of
   clients instead of re-bursting them on one sweep tick. *)
let arm_deadline t rs =
  let factor = float_of_int (1 lsl min rs.retries 6) in
  let jitter = 1.0 +. (0.25 *. Rng.float t.rng 1.0) in
  rs.next_deadline <-
    Engine.now t.engine +. (t.config.Config.request_timeout *. factor *. jitter)

let flush t =
  t.flush_scheduled <- false;
  if t.out_count > 0 then begin
    let reqs = List.rev t.out_buffer in
    let bytes = t.out_count * Message.Wire.request t.config in
    t.out_buffer <- [];
    t.out_count <- 0;
    match t.hooks.send_mode with
    | To_primary ->
        send_to_replica t ~dst:(primary t) ~bytes
          (Message.Client_request_bundle reqs)
    | To_all ->
        broadcast_replicas t ~bytes (Message.Client_request_bundle reqs)
  end

let ensure_flush t =
  if not t.flush_scheduled then begin
    t.flush_scheduled <- true;
    Engine.schedule t.engine ~delay:t.config.Config.client_bundle_delay
      (fun () -> flush t)
  end

let submit_next t client =
  if not t.paused then begin
    Poe_prof.Prof.(bump ix_requests_submitted);
    let rid = t.next_rid.(client) in
    t.next_rid.(client) <- rid + 1;
    let op =
      match t.workload with
      | Some w -> Some (Ycsb.generate w t.rng)
      | None -> None
    in
    let req =
      {
        Message.hub = t.hub;
        client;
        rid;
        op;
        submitted = Engine.now t.engine;
      }
    in
    let rs =
      {
        req;
        responses = [];
        first_sent = Engine.now t.engine;
        retries = 0;
        next_deadline = 0.0;
      }
    in
    arm_deadline t rs;
    t.slots.(client) <- rs;
    t.live <- t.live + 1;
    if Poe_obs.Trace.enabled () then
      Poe_obs.Trace.instant ~ts:req.Message.submitted ~node:(node_id t)
        ~cat:"client"
        ~args:
          [
            ("hub", Poe_obs.Trace.I t.hub);
            ("client", Poe_obs.Trace.I client);
            ("rid", Poe_obs.Trace.I rid);
          ]
        "submit";
    t.out_buffer <- req :: t.out_buffer;
    t.out_count <- t.out_count + 1;
    ensure_flush t
  end

(* Responses lists are at most n long, so quorum counting scans them
   directly — this runs once per delivered response, so it must not
   allocate (a closure over [seqno] and [digest] would). *)
let rec count_from acc ~seqno ~digest = function
  | [] -> acc
  | (_, (_, s, d)) :: rest ->
      let acc = if s = seqno && String.equal d digest then acc + 1 else acc in
      count_from acc ~seqno ~digest rest

let count_matching rs ~seqno ~digest = count_from 0 ~seqno ~digest rs.responses

let matching_responses rs =
  List.fold_left
    (fun ((best_count, _) as best) (_, ((_, seqno, digest) as witness)) ->
      let count = count_matching rs ~seqno ~digest in
      if count > best_count then (count, Some witness) else best)
    (0, None) rs.responses

let complete t rs =
  let client = rs.req.Message.client in
  if client >= 0 && client < Array.length t.slots && t.slots.(client) == rs
  then begin
    t.slots.(client) <- idle;
    t.live <- t.live - 1;
    t.completed <- t.completed + 1;
    Poe_prof.Prof.(bump ix_replies_completed);
    let now = Engine.now t.engine in
    Stats.record_completion t.stats ~now
      ~submitted:rs.req.Message.submitted ~count:1;
    if Poe_obs.Trace.enabled () then begin
      (* Stamp the reply with the slot that served it (the response set's
         winning witness) so lifecycle reconstruction can close the
         submit → ... → reply chain per (view, seqno). *)
      let view, seqno =
        match matching_responses rs with
        | _, Some (v, s, _) -> (v, s)
        | _, None -> (-1, -1)
      in
      Poe_obs.Trace.instant ~ts:now ~node:(node_id t) ~cat:"client" ~view ~seqno
        ~args:
          [
            ("hub", Poe_obs.Trace.I t.hub);
            ("client", Poe_obs.Trace.I rs.req.Message.client);
            ("rid", Poe_obs.Trace.I rs.req.Message.rid);
            ("latency", Poe_obs.Trace.F (now -. rs.req.Message.submitted));
          ]
        "reply"
    end;
    if Poe_obs.Metrics.enabled () then
      Poe_obs.Metrics.hobs "client.latency" (now -. rs.req.Message.submitted);
    submit_next t rs.req.Message.client
  end

(* Timed-out requests are re-broadcast to every replica as CLIENT-FORWARD;
   non-faulty replicas relay them to the primary and start suspecting it
   (Fig. 3 discussion). Forwards are coalesced like fresh requests. *)
let flush_forwards t =
  t.forward_scheduled <- false;
  match t.forward_buffer with
  | [] -> ()
  | reqs ->
      t.forward_buffer <- [];
      let bytes = Message.Wire.request t.config in
      List.iter
        (fun req -> broadcast_replicas t ~bytes (Message.Client_forward req))
        reqs

let forward_to_all t rs =
  t.forward_buffer <- rs.req :: t.forward_buffer;
  if not t.forward_scheduled then begin
    t.forward_scheduled <- true;
    Engine.schedule t.engine ~delay:t.config.Config.client_bundle_delay
      (fun () -> flush_forwards t)
  end

let handle_timeout t rs =
  rs.retries <- rs.retries + 1;
  Poe_prof.Prof.(bump ix_retransmits);
  arm_deadline t rs;
  if Poe_obs.Trace.enabled () then
    Poe_obs.Trace.instant ~ts:(Engine.now t.engine) ~node:(node_id t)
      ~cat:"client"
      ~args:[ ("retries", Poe_obs.Trace.I rs.retries) ]
      "request_timeout";
  match t.hooks.on_timeout with
  | Some f -> f t rs
  | None -> forward_to_all t rs

let sweep_interval t = Float.max 0.05 (t.config.Config.request_timeout /. 6.0)

(* Expired requests are handled in client order. A timeout hook may
   complete the request it is handed; its client's next request gets a
   fresh deadline, so no request is handled twice in one sweep. *)
let rec timeout_sweep t =
  let now = Engine.now t.engine in
  for client = 0 to Array.length t.slots - 1 do
    let rs = t.slots.(client) in
    if rs != idle && now >= rs.next_deadline then handle_timeout t rs
  done;
  if not t.paused then
    Engine.schedule t.engine ~delay:(sweep_interval t) (fun () ->
        timeout_sweep t)

let start t =
  for client = 0 to t.config.Config.clients_per_hub - 1 do
    (* Stagger initial submissions over a few milliseconds so the first
       batch wave is not one giant synchronized burst. *)
    let jitter = Rng.float t.rng 0.005 in
    Engine.schedule t.engine ~delay:jitter (fun () -> submit_next t client)
  done;
  Engine.schedule t.engine ~delay:(sweep_interval t) (fun () -> timeout_sweep t)

(* Stands for a response not built yet. *)
let no_response = (-1, (-1, -1, ""))

(* One [(replica, witness)] response per message, shared by every request
   it acks, and built only once an ack counts: most responses arrive
   after their requests completed. A loop rather than [List.iter], whose
   closure would be allocated per message. *)
let rec count_acks t ~view ~seqno ~replica ~result_digest response = function
  | [] -> ()
  | (client, rid) :: acks ->
      (* An ack for an unknown client or a request no longer outstanding
         (already completed, or a stale rid) is ignored. *)
      let response =
        if client >= 0 && client < Array.length t.slots then begin
          let rs = t.slots.(client) in
          if rs != idle && rs.req.Message.rid = rid
             && not (List.mem_assoc replica rs.responses)
          then begin
            let response =
              if response == no_response then
                (replica, (view, seqno, result_digest))
              else response
            in
            rs.responses <- response :: rs.responses;
            if count_matching rs ~seqno ~digest:result_digest >= t.hooks.quorum
            then complete t rs;
            response
          end
          else response
        end
        else response
      in
      count_acks t ~view ~seqno ~replica ~result_digest response acks

let handle_response t ~view ~seqno ~replica ~result_digest acks =
  if view > t.believed_view then t.believed_view <- view;
  count_acks t ~view ~seqno ~replica ~result_digest no_response acks

let on_network_message t ~src msg =
  let consumed =
    match t.hooks.on_message with
    | Some f -> f t ~src msg
    | None -> false
  in
  if not consumed then
    match msg with
    | Message.Exec_response { view; seqno; replica; result_digest; acks; _ } ->
        handle_response t ~view ~seqno ~replica ~result_digest acks
    | _ -> ()

let pause t = t.paused <- true
