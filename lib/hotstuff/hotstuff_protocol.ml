module R = Poe_runtime
module Config = R.Config
module Cost = R.Cost
module Message = R.Message
module Server = R.Server
module Ctx = R.Replica_ctx
module Exec = R.Exec_engine
module Recovery = R.Recovery
module Hub = R.Hub_core
module Quorum = R.Quorum
module Block = Poe_ledger.Block

let name = "hotstuff"

module Trace = Poe_obs.Trace

type Message.t +=
  | Hs_proposal of { round : int; batch : Message.batch; qc_round : int }
      (** leader of [round] → all; [qc_round] is certified by the carried
          QC (round-1 in the happy path) *)
  | Hs_vote of { round : int; digest : string }
      (** replica → leader of [round+1]: a threshold signature share *)
  | Hs_new_view of { round : int }
      (** pacemaker: please lead [round], the previous one timed out *)
  | Hs_block_request of { round : int }
      (** commitment stalled on a block we never received: ask a peer to
          re-send its proposal *)

type replica = {
  ctx : Ctx.t;
  exec : Exec.t;
  recovery : Recovery.t;
  (* Pending client requests (every replica sees every request: clients
     broadcast in rotating-leader mode). *)
  queue : Message.request Queue.t;
  queued : (int, unit) Hashtbl.t;
  in_chain : (int, int) Hashtbl.t;
      (* request key -> number of stored blocks carrying it. Committed
         blocks keep their count forever — execution is asynchronous, so
         dropping a key at commit time would let the next leader re-propose
         it before [Exec.was_executed] turns true. Only a dead fork
         decrements, releasing its requests for legitimate re-proposal. *)
  blocks : (int, Message.batch) Hashtbl.t;  (* round -> block *)
  parents : (int, int) Hashtbl.t;
      (* round -> the qc_round its accepted proposal extended: the block's
         parent in the block tree. Commitment walks these pointers. *)
  votes : (int, Quorum.t) Hashtbl.t;
      (* as next leader: round -> voter -> digest *)
  new_views : (int, Quorum.t) Hashtbl.t;  (* round -> senders *)
  mutable round : int;          (* highest round with an accepted proposal *)
  mutable qc_high : int;        (* highest round we hold a QC for *)
  mutable locked : int;
      (* two-chain lock: never vote for a proposal extending a QC below
         this round *)
  mutable commit_tip : int;
      (* highest QC'd round heading a consecutive three-chain; commitment
         walks the block tree down from here *)
  mutable proposed_for : int;   (* highest round this replica proposed *)
  mutable committed_upto : int; (* offered to execution *)
  mutable timeout_round : int;  (* round currently being waited for *)
  mutable timer_generation : int;
  mutable pacemaker_backoff : int;
      (* consecutive timeouts without round progress; resets on progress *)
  mutable fetch_round : int;    (* block currently being re-requested *)
  mutable fetch_attempts : int;
  mutable fetch_deadline : float;
}

let ctx t = t.ctx
let current_view t = t.round
let round_of t = t.round
let k_exec t = Exec.k_exec t.exec
let cfg t = Ctx.config t.ctx
let costs t = Ctx.cost t.ctx
let nf t = Config.nf (cfg t)
let n t = (cfg t).Config.n
let leader_of t round = round mod n t

let block_digest (b : Message.batch) = b.Message.digest

(* A HotStuff "slot" is a round: it opens at the proposal and closes when
   the three-chain rule commits it and Exec_engine executes it. *)
let tr_phase t ~round phase =
  Ctx.trace_phase t.ctx ~cat:name ~view:round ~seqno:round phase

let empty_block round =
  { Message.digest = Printf.sprintf "hs-empty-%d" round; reqs = [||]; acks = [] }

(* Chained-HotStuff commitment. A round is final only when it sits on the
   branch below a certified three-chain of consecutive rounds: when we
   hold the QC for [tip] and the block tree shows tip-2 <- tip-1 <- tip,
   round tip-2 and every ancestor commit. The committed rounds are found
   by walking parent pointers down from the tip; rounds the branch jumps
   over are on no chain and commit as empty blocks. Deriving "skipped"
   any other way (e.g. marks accumulated from whatever proposals happened
   to arrive) is unsafe: a stale post-partition leader would make lagging
   replicas commit a round as empty while others committed its real
   block. A branch round whose proposal we never received stalls
   commitment until a peer re-sends it ({!request_block}). *)
let rec commit_branch t ~tip_qc =
  if
    tip_qc >= 2
    && Hashtbl.find_opt t.parents tip_qc = Some (tip_qc - 1)
    && Hashtbl.find_opt t.parents (tip_qc - 1) = Some (tip_qc - 2)
  then t.commit_tip <- max t.commit_tip tip_qc;
  let boundary = t.commit_tip - 2 in
  if boundary > t.committed_upto then begin
    (* Rounds on the committed branch above committed_upto, ascending. *)
    let rec branch r acc =
      if r <= t.committed_upto then Ok acc
      else
        match Hashtbl.find_opt t.parents r with
        | None -> Error r
        | Some p -> branch p (r :: acc)
    in
    match branch t.commit_tip [] with
    | Error gap -> request_block t gap
    | Ok chain ->
        let release_requests (batch : Message.batch) =
          Array.iter
            (fun req ->
              let key = Message.request_key req in
              match Hashtbl.find_opt t.in_chain key with
              | Some c when c > 1 -> Hashtbl.replace t.in_chain key (c - 1)
              | Some _ -> Hashtbl.remove t.in_chain key
              | None -> ())
            batch.Message.reqs
        in
        let rec go r chain =
          if r <= boundary then
            match chain with
            | b :: rest when b = r -> (
                match Hashtbl.find_opt t.blocks r with
                | Some batch ->
                    tr_phase t ~round:r "commit";
                    Exec.offer t.exec ~seqno:r ~view:r ~batch
                      ~proof:(Block.Threshold_sig "hs-qc");
                    t.committed_upto <- r;
                    go (r + 1) rest
                | None ->
                    (* parents without blocks cannot happen (stored
                       together); stall defensively rather than guess *)
                    request_block t r)
            | chain ->
                (* Not an ancestor of the committed tip: the branch
                   abandoned this round. If we hold a block for it (a dead
                   fork), free its requests for re-proposal. *)
                (match Hashtbl.find_opt t.blocks r with
                | Some batch -> release_requests batch
                | None -> ());
                Exec.offer t.exec ~seqno:r ~view:r ~batch:(empty_block r)
                  ~proof:(Block.Threshold_sig "hs-skip");
                t.committed_upto <- r;
                go (r + 1) chain
        in
        go (t.committed_upto + 1) chain
  end

(* Ask a peer to re-send the proposal for [r]: first its leader, then the
   others in turn, one request per view-timeout, so a lost proposal on the
   committed branch cannot stall commitment forever. *)
and request_block t r =
  if t.fetch_round <> r then begin
    t.fetch_round <- r;
    t.fetch_attempts <- 0;
    t.fetch_deadline <- 0.0
  end;
  let now = Ctx.now t.ctx in
  if now >= t.fetch_deadline then begin
    let dst = (leader_of t r + t.fetch_attempts) mod n t in
    let dst = if dst = Ctx.id t.ctx then (dst + 1) mod n t else dst in
    t.fetch_attempts <- t.fetch_attempts + 1;
    t.fetch_deadline <- now +. (cfg t).Config.view_timeout;
    Poe_prof.Prof.(bump ix_block_fetches);
    Ctx.send_replica t.ctx ~dst ~bytes:Message.Wire.vote
      (Hs_block_request { round = r })
  end

(* A leader's proposal broadcast, including the byzantine behaviours of
   Example 3 (mirroring the other protocols' propose paths). Equivocation
   splits the backups in two halves with conflicting digests: each half is
   smaller than nf, so no QC can ever form on an equivocated round — the
   pacemaker skips it and it commits as an empty block everywhere. *)
let broadcast_proposal t ~round ~(batch : Message.batch) =
  let bytes = Message.Wire.propose (cfg t) in
  let qc_round = t.qc_high in
  match Ctx.behavior t.ctx with
  | Ctx.Honest ->
      Ctx.broadcast_replicas t.ctx ~include_self:true ~bytes
        (Hs_proposal { round; batch; qc_round })
  | Ctx.Silent | Ctx.Stop_proposing -> ()
  | Ctx.Keep_in_dark dark ->
      let dsts =
        List.init (n t) (fun i -> i)
        |> List.filter (fun i -> not (List.mem i dark))
      in
      Ctx.broadcast_to t.ctx ~dsts ~bytes (Hs_proposal { round; batch; qc_round })
  | Ctx.Equivocate ->
      let me = Ctx.id t.ctx in
      let others =
        List.init (n t) (fun i -> i) |> List.filter (fun i -> i <> me)
      in
      let half = List.length others / 2 in
      let left = me :: List.filteri (fun i _ -> i < half) others in
      let right = List.filteri (fun i _ -> i >= half) others in
      let forged =
        { batch with Message.digest = batch.Message.digest ^ "!equiv" }
      in
      Ctx.broadcast_to t.ctx ~dsts:left ~bytes
        (Hs_proposal { round; batch; qc_round });
      Ctx.broadcast_to t.ctx ~dsts:right ~bytes
        (Hs_proposal { round; batch = forged; qc_round })

(* A leader may only extend a branch whose every uncommitted block it
   holds. It filters its batch through [in_chain], which it can only have
   populated from blocks it actually received: proposing on top of a
   missed ancestor would re-propose that ancestor's requests, and both
   rounds of the same branch would commit — executing the requests twice.
   Missing ancestors are fetched; the proposal waits for them. *)
let branch_known t ~tip =
  let rec walk r =
    if r <= t.committed_upto then true
    else
      match Hashtbl.find_opt t.parents r with
      | None ->
          request_block t r;
          false
      | Some p -> walk p
  in
  walk tip

(* ------------------------------------------------------------------ *)
(* Pacemaker                                                           *)

let rec arm_timer t =
  let expected = t.round + 1 in
  t.timeout_round <- expected;
  t.timer_generation <- t.timer_generation + 1;
  let generation = t.timer_generation in
  (* Exponential backoff, the same 2^min(rounds,6) rule PoE and PBFT apply
     to their view-change timeouts: sustained faults double the
     pacemaker's patience instead of hammering NEW-VIEWs at a fixed
     cadence, which under long outages degenerates into a livelock where
     every leader is deposed before it can gather a quorum. *)
  let delay =
    (cfg t).Config.view_timeout
    *. float_of_int (1 lsl min t.pacemaker_backoff 6)
  in
  Ctx.schedule t.ctx ~delay (fun () ->
      if generation = t.timer_generation && t.round < expected then begin
        (* The round stalled: ask its leader (or, on repeat, the next
           one) to take over with our NEW-VIEW. *)
        if Trace.enabled () then
          Trace.instant ~ts:(Ctx.now t.ctx) ~node:(Ctx.id t.ctx) ~cat:name
            ~view:expected "pacemaker_timeout";
        Poe_prof.Prof.(bump ix_pacemaker_timeouts);
        t.pacemaker_backoff <- t.pacemaker_backoff + 1;
        Ctx.send_replica t.ctx ~dst:(leader_of t expected)
          ~bytes:Message.Wire.vote
          (Hs_new_view { round = expected });
        arm_timer t
      end)

(* ------------------------------------------------------------------ *)
(* Leading                                                             *)

and next_batch t =
  let cfg = cfg t in
  let reqs = ref [] in
  let count = ref 0 in
  while !count < cfg.Config.batch_size && not (Queue.is_empty t.queue) do
    let req = Queue.pop t.queue in
    Hashtbl.remove t.queued (Message.request_key req);
    if
      (not (Exec.was_executed t.exec req))
      && not (Hashtbl.mem t.in_chain (Message.request_key req))
    then begin
      reqs := req :: !reqs;
      incr count
    end
  done;
  List.rev !reqs

and try_lead t ~round =
  if
    leader_of t round = Ctx.id t.ctx
    && t.proposed_for < round
    && t.qc_high >= round - 1
    && round = t.round + 1
    && branch_known t ~tip:t.qc_high
  then begin
    let reqs = next_batch t in
    (* Propose even when idle if uncommitted blocks still need the chain
       to grow (three-chain); otherwise wait for requests. *)
    let has_uncommitted = t.committed_upto < t.round in
    if reqs <> [] || has_uncommitted then begin
      t.proposed_for <- round;
      let batch =
        if reqs = [] then empty_block round
        else
          Message.batch_of_requests
            ~materialize:(cfg t).Config.materialize reqs
      in
      let c = costs t in
      Ctx.work t.ctx Server.Worker
        ~cost:(Cost.combine_cost c ~shares:(nf t))
        (fun () -> broadcast_proposal t ~round ~batch)
    end
  end

(* ------------------------------------------------------------------ *)
(* The replica role                                                    *)

and on_proposal t ~src ~round ~(batch : Message.batch) ~qc_round =
  (* Proposals for the current or a future round must come from that
     round's leader; older blocks are also accepted from peers answering a
     block re-request (voting below is gated on round freshness anyway). *)
  if
    (src = leader_of t round || round < t.round)
    && round > t.committed_upto
  then begin
    (* Store the block and its parent pointer even when the proposal
       arrives late (network jitter) so commitment never waits on a block
       we already saw. *)
    if not (Hashtbl.mem t.blocks round) then begin
      Hashtbl.replace t.blocks round batch;
      Hashtbl.replace t.parents round qc_round;
      tr_phase t ~round "propose";
      Array.iter
        (fun req ->
          let key = Message.request_key req in
          Hashtbl.replace t.in_chain key
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.in_chain key)))
        batch.Message.reqs
    end;
    t.qc_high <- max t.qc_high qc_round;
    (* Two-chain lock: a QC for [qc_round] directly on top of its
       predecessor locks that predecessor — we will never again vote for a
       branch forking below it. *)
    if
      qc_round >= 1
      && Hashtbl.find_opt t.parents qc_round = Some (qc_round - 1)
    then t.locked <- max t.locked (qc_round - 1);
    commit_branch t ~tip_qc:qc_round;
    (* A late-arriving block may be the ancestor [try_lead] was waiting
       for (fetched before proposing on an incompletely-known branch). *)
    if round < t.round then try_lead t ~round:(t.round + 1);
    if round > t.round && qc_round >= t.locked then begin
      t.round <- round;
      t.pacemaker_backoff <- 0;
      (* Vote to the next leader: a threshold share on the block. *)
      let c = costs t in
      Ctx.work t.ctx Server.Worker
        ~cost:
          (Cost.hash_cost c ~bytes:(Message.Wire.propose (cfg t))
          +. c.Cost.ts_share_sign)
        (fun () ->
          tr_phase t ~round "vote";
          Ctx.send_replica t.ctx
            ~dst:(leader_of t (round + 1))
            ~bytes:Message.Wire.vote
            (Hs_vote { round; digest = block_digest batch }));
      arm_timer t
    end
  end

and on_vote t ~src ~round ~digest =
  if leader_of t (round + 1) = Ctx.id t.ctx then begin
    let bucket = Quorum.find_or_create t.votes round ~n:(n t) in
    if Quorum.add bucket ~src ~digest = Quorum.Added then begin
      let c = costs t in
      Ctx.work t.ctx Server.Worker ~cost:c.Cost.ts_share_verify (fun () ->
          if Quorum.count bucket digest >= nf t && t.qc_high < round then begin
            t.qc_high <- round;
            (* The freshly formed QC may complete a three-chain. *)
            commit_branch t ~tip_qc:round;
            try_lead t ~round:(round + 1)
          end)
    end
  end

and on_new_view t ~src ~round =
  let bucket = Quorum.find_or_create t.new_views round ~n:(n t) in
  ignore (Quorum.replace bucket ~src ~digest:"");
  if
    leader_of t round = Ctx.id t.ctx
    && Quorum.size bucket >= nf t
    && t.proposed_for < round
  then begin
    (* Lead the round even though its predecessor stalled: extend our
       highest QC; the gap rounds will commit as empty blocks. *)
    if Trace.enabled () then
      Trace.instant ~ts:(Ctx.now t.ctx) ~node:(Ctx.id t.ctx) ~cat:name
        ~view:round "new_view";
    Poe_prof.Prof.(bump ix_new_views);
    t.round <- max t.round (round - 1);
    let reqs = next_batch t in
    t.proposed_for <- round;
    let batch =
      if reqs = [] then empty_block round
      else
        Message.batch_of_requests ~materialize:(cfg t).Config.materialize reqs
    in
    broadcast_proposal t ~round ~batch
  end

let on_client_request t (req : Message.request) =
  let key = Message.request_key req in
  if
    (not (Exec.was_executed t.exec req))
    && (not (Hashtbl.mem t.in_chain key))
    && not (Hashtbl.mem t.queued key)
  then begin
    Hashtbl.replace t.queued key ();
    Queue.push req t.queue;
    (* An idle chain restarts as soon as work arrives. *)
    try_lead t ~round:(t.round + 1)
  end

let on_executed t ~seqno ~batch = Recovery.note_executed t.recovery ~seqno ~batch

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
      recovery =
        Recovery.create ~ctx ~exec
          ~primary:(fun () -> let t = me () in leader_of t (t.round + 1))
          ~active:(fun () -> true)
          (* The pacemaker, not a view change, provides liveness. *)
          ~on_suspect:(fun () -> ())
          ();
      queue = Queue.create ();
      queued = Hashtbl.create 4096;
      in_chain = Hashtbl.create 1024;
      blocks = Hashtbl.create 1024;
      parents = Hashtbl.create 1024;
      votes = Hashtbl.create 64;
      new_views = Hashtbl.create 16;
      round = -1;
      qc_high = -1;
      locked = -1;
      commit_tip = -1;
      proposed_for = -1;
      committed_upto = -1;
      timeout_round = 0;
      timer_generation = 0;
      pacemaker_backoff = 0;
      fetch_round = -1;
      fetch_attempts = 0;
      fetch_deadline = 0.0;
    }
  in
  self := Some t;
  t

let start_replica t =
  Recovery.start t.recovery;
  (* Replica 0 bootstraps round 0 once requests arrive; votes carry the
     chain from there. *)
  if Ctx.id t.ctx = 0 then begin
    t.qc_high <- -1;
    try_lead t ~round:0
  end;
  arm_timer t

let on_message t ~src msg =
  if Ctx.alive t.ctx && not (Recovery.on_message t.recovery ~src msg) then
    match msg with
    | Message.Client_request req -> on_client_request t req
    | Message.Client_request_bundle reqs -> List.iter (on_client_request t) reqs
    | Message.Client_forward req -> on_client_request t req
    | Hs_proposal { round; batch; qc_round } ->
        on_proposal t ~src ~round ~batch ~qc_round
    | Hs_vote { round; digest } -> on_vote t ~src ~round ~digest
    | Hs_new_view { round } -> on_new_view t ~src ~round
    | Hs_block_request { round } -> (
        match
          (Hashtbl.find_opt t.blocks round, Hashtbl.find_opt t.parents round)
        with
        | Some batch, Some qc_round ->
            Ctx.send_replica t.ctx ~dst:src
              ~bytes:(Message.Wire.propose (cfg t))
              (Hs_proposal { round; batch; qc_round })
        | _ -> ())
    | _ -> ()

let receive_cost ~src config cost msg =
  match R.Protocol_intf.client_receive_cost ~src config cost msg with
  | Some c -> c
  | None -> (
      let base = cost.Cost.msg_in in
      match msg with
      | Hs_proposal _ -> base +. cost.Cost.ts_verify
      | Hs_vote _ | Hs_new_view _ | Hs_block_request _ ->
          base +. cost.Cost.mac_verify
      | _ -> base)

let hub_hooks config =
  {
    Hub.quorum = Config.f config + 1;
    send_mode = Hub.To_all;
    on_timeout = None;
    on_message = None;
  }
