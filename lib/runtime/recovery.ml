module Ctx = Replica_ctx
module Exec = Exec_engine

type t = {
  ctx : Ctx.t;
  exec : Exec.t;
  primary : unit -> int;
  active : unit -> bool;
  on_suspect : unit -> unit;
  on_stable : int -> unit;
  watched : (int, Message.request * float) Hashtbl.t;
  votes : (int, Quorum.t) Hashtbl.t; (* seqno -> sender -> digest *)
  mutable last_vote_sent : int;
  mutable transfer_pending : bool;
  mutable suspect_round : int;
      (* consecutive suspicions with no progress in between; scales the
         watch deadlines so cascading view changes (successive faulty
         primaries) back off exponentially instead of thrashing *)
}

let create ~ctx ~exec ~primary ~active ~on_suspect ?(on_stable = fun _ -> ())
    () =
  {
    ctx;
    exec;
    primary;
    active;
    on_suspect;
    on_stable;
    watched = Hashtbl.create 256;
    votes = Hashtbl.create 16;
    last_vote_sent = -1;
    transfer_pending = false;
    suspect_round = 0;
  }

let stable t = Exec.stable t.exec

let cfg t = Ctx.config t.ctx

let suspicion_round t = t.suspect_round

(* Watch deadline, scaled by the suspicion backoff: doubles per
   consecutive suspicion (capped at 64x) and resets on the first local
   execution, so a run of faulty successor primaries is given
   geometrically more time per view instead of re-suspecting every
   view_timeout. *)
let watch_deadline t =
  let factor = float_of_int (1 lsl min t.suspect_round 6) in
  Ctx.now t.ctx +. ((cfg t).Config.view_timeout *. factor)

let forward_to_primary t (req : Message.request) =
  Ctx.send_replica t.ctx ~dst:(t.primary ())
    ~bytes:(Message.Wire.request (cfg t))
    (Message.Client_request req)

let watch t req =
  let key = Message.request_key req in
  if (not (Hashtbl.mem t.watched key)) && not (Exec.was_executed t.exec req)
  then begin
    Hashtbl.replace t.watched key (req, watch_deadline t);
    forward_to_primary t req
  end

let watched_requests t =
  Hashtbl.fold (fun _ (req, _) acc -> req :: acc) t.watched []

let postpone_watches t =
  let deadline = watch_deadline t in
  let entries = Hashtbl.fold (fun k (r, _) acc -> (k, r) :: acc) t.watched [] in
  List.iter (fun (k, r) -> Hashtbl.replace t.watched k (r, deadline)) entries

let refresh_watches t =
  let deadline = watch_deadline t in
  let entries = Hashtbl.fold (fun k (r, _) acc -> (k, r) :: acc) t.watched [] in
  (* One bundle for the whole backlog: a per-request re-forward storm from
     every replica would bury the new primary. *)
  let bundle =
    List.filter_map
      (fun (key, req) ->
        if Exec.was_executed t.exec req then begin
          Hashtbl.remove t.watched key;
          None
        end
        else begin
          Hashtbl.replace t.watched key (req, deadline);
          Some req
        end)
      entries
  in
  if bundle <> [] then
    Ctx.send_replica t.ctx ~dst:(t.primary ())
      ~bytes:(List.length bundle * Message.Wire.request (cfg t))
      (Message.Client_request_bundle bundle)

(* ------------------------------------------------------------------ *)
(* Checkpoints and state transfer                                      *)

let vote_bucket t seqno =
  Quorum.find_or_create t.votes seqno ~n:(cfg t).Config.n

(* What a checkpoint vote certifies. With a materialized ledger the vote
   carries the chain block hash — a commitment to the *whole* executed
   prefix, since every block hashes its predecessor. Without one it falls
   back to the batch digest, which only certifies the boundary slot. *)
let checkpoint_digest t ~seqno =
  match Ctx.chain_block_hash t.ctx ~seqno with
  | Some h -> h
  | None -> (
      match Exec.executed_batch t.exec seqno with
      | Some b -> b.Message.digest
      | None -> "?")

let broadcast_vote t ~seqno =
  if seqno > t.last_vote_sent then begin
    t.last_vote_sent <- seqno;
    let digest = checkpoint_digest t ~seqno in
    Ctx.broadcast_replicas t.ctx ~bytes:Message.Wire.vote
      (Message.Checkpoint_vote { seqno; digest });
    ignore (Quorum.replace (vote_bucket t seqno) ~src:(Ctx.id t.ctx) ~digest)
  end

let stabilize t ~seqno =
  if seqno > Exec.stable t.exec && seqno <= Exec.k_exec t.exec then begin
    if Poe_obs.Trace.enabled () then
      Poe_obs.Trace.instant ~ts:(Ctx.now t.ctx) ~node:(Ctx.id t.ctx)
        ~cat:"recovery" ~seqno "checkpoint_stable";
    Poe_prof.Prof.(bump ix_checkpoints);
    Exec.set_stable t.exec seqno;
    Ctx.stable_checkpoint t.ctx ~seqno;
    Exec.gc_below t.exec ~seqno;
    Hashtbl.filter_map_inplace
      (fun s q -> if s <= seqno then None else Some q)
      t.votes;
    t.on_stable seqno
  end

let request_state_transfer t ~from_peers =
  if not t.transfer_pending then begin
    t.transfer_pending <- true;
    let peer =
      List.filter (fun p -> p <> Ctx.id t.ctx) from_peers
      |> List.fold_left min max_int
    in
    if peer < max_int then begin
      if Poe_obs.Trace.enabled () then
        Poe_obs.Trace.instant ~ts:(Ctx.now t.ctx) ~node:(Ctx.id t.ctx)
          ~cat:"recovery"
          ~args:[ ("peer", Poe_obs.Trace.I peer) ]
          "state_transfer_request";
      Poe_prof.Prof.(bump ix_state_transfer_requests);
      Ctx.send_replica t.ctx ~dst:peer ~bytes:Message.Wire.vote
        (Message.State_request { from_seqno = Exec.k_exec t.exec })
    end
  end

let entry_bytes = Message.Wire.per_txn + 64

(* Last vote wins, and the quorum is re-checked even on a repeat. *)
let on_vote t ~src ~seqno ~digest =
  let bucket = vote_bucket t seqno in
  let counted = Quorum.replace bucket ~src ~digest <> Quorum.Out_of_range in
  let matching = Quorum.count bucket digest in
  let config = cfg t in
  if not counted then ()
  else if seqno <= Exec.k_exec t.exec then begin
    if matching >= Config.nf config && seqno > Exec.stable t.exec then begin
      (* Only stabilize a certified checkpoint our own history agrees
         with. A quorum certifying a digest we did not compute means our
         speculative suffix diverged: drop it back to the last stable
         point and re-fetch the certified prefix from the voters instead
         of freezing divergent state under a checkpoint. *)
      let local = checkpoint_digest t ~seqno in
      if String.equal local "?" || String.equal local digest then
        stabilize t ~seqno
      else begin
        if Poe_obs.Trace.enabled () then
          Poe_obs.Trace.instant ~ts:(Ctx.now t.ctx) ~node:(Ctx.id t.ctx)
            ~cat:"recovery" ~seqno "divergence_repair";
        Poe_prof.Prof.(bump ix_divergence_repairs);
        ignore (Exec.rollback_to t.exec ~seqno:(Exec.stable t.exec));
        request_state_transfer t
          ~from_peers:(Quorum.signers ~digest bucket)
      end
    end
  end
  else if matching >= Config.f config + 1 then begin
    (* At least one honest replica is ahead of us: catch up. *)
    request_state_transfer t ~from_peers:(Quorum.signers ~digest bucket)
  end

let retained_entries t ~above =
  Exec.executed_since t.exec above
  |> List.map (fun (e_seqno, e_view, e_batch) ->
         { Message.e_seqno; e_view; e_batch })

let on_state_request t ~src ~from_seqno =
  let stable = Exec.stable t.exec in
  if from_seqno >= stable then begin
    (* Incremental: the requester's horizon is within our retention. *)
    let entries = retained_entries t ~above:from_seqno in
    if entries <> [] then
      Ctx.send_replica t.ctx ~dst:src
        ~bytes:(Message.Wire.header + (List.length entries * entry_bytes))
        (Message.State_transfer { entries })
  end
  else begin
    (* The requester is behind our stable checkpoint: batches below it are
       garbage-collected, so ship the checkpoint itself — application rows
       and ledger as of [stable] — plus the retained tail. The ledger is
       charged from genesis to its last shipped block: the blocks below
       the anchor live in the sender's storage, not in [blocks]. *)
    let rows, blocks = Ctx.checkpoint_snapshot t.ctx ~upto:stable in
    let entries = retained_entries t ~above:stable in
    let ledger_blocks =
      List.fold_left (fun _ (b : Poe_ledger.Block.t) -> b.height + 1) 0 blocks
    in
    let bytes =
      Message.Wire.header
      + (List.length rows * 48)
      + (ledger_blocks * 96)
      + (List.length entries * entry_bytes)
    in
    Ctx.send_replica t.ctx ~dst:src ~bytes
      (Message.State_snapshot { upto = stable; rows; blocks; entries })
  end

let on_state_snapshot t ~upto ~rows ~blocks ~entries =
  t.transfer_pending <- false;
  if upto > Exec.k_exec t.exec then begin
    if Poe_obs.Trace.enabled () then
      Poe_obs.Trace.instant ~ts:(Ctx.now t.ctx) ~node:(Ctx.id t.ctx)
        ~cat:"recovery" ~seqno:upto "snapshot_adopted";
    Poe_prof.Prof.(bump ix_snapshots_adopted);
    Exec.adopt_snapshot t.exec ~upto ~rows ~blocks;
    Ctx.stable_checkpoint t.ctx ~seqno:upto;
    t.on_stable upto
  end;
  List.iter
    (fun (e : Message.exec_entry) ->
      if e.e_seqno = Exec.k_exec t.exec + 1 then
        Exec.force_adopt t.exec ~seqno:e.e_seqno ~view:e.e_view
          ~batch:e.e_batch
          ~proof:(Poe_ledger.Block.Vote_certificate []))
    entries

let on_state_transfer t ~entries =
  t.transfer_pending <- false;
  List.iter
    (fun (e : Message.exec_entry) ->
      if e.e_seqno = Exec.k_exec t.exec + 1 then
        Exec.force_adopt t.exec ~seqno:e.e_seqno ~view:e.e_view
          ~batch:e.e_batch
          ~proof:(Poe_ledger.Block.Vote_certificate []))
    entries

let on_message t ~src msg =
  match msg with
  | Message.Checkpoint_vote { seqno; digest } ->
      on_vote t ~src ~seqno ~digest;
      true
  | Message.State_request { from_seqno } ->
      on_state_request t ~src ~from_seqno;
      true
  | Message.State_transfer { entries } ->
      on_state_transfer t ~entries;
      true
  | Message.State_snapshot { upto; rows; blocks; entries } ->
      on_state_snapshot t ~upto ~rows ~blocks ~entries;
      true
  | _ -> false

let note_executed t ~seqno ~(batch : Message.batch) =
  t.suspect_round <- 0;
  (* Nothing is watched unless clients have timed out and forwarded:
     skip hashing every request key of every batch against an empty
     table. *)
  if Hashtbl.length t.watched > 0 then
    Array.iter
      (fun r -> Hashtbl.remove t.watched (Message.request_key r))
      batch.Message.reqs;
  if (seqno + 1) mod (cfg t).Config.checkpoint_period = 0 then
    broadcast_vote t ~seqno

let rec sweep t =
  if t.active () then begin
    (* Allow a fresh transfer request each sweep in case the last one was
       lost or its peer crashed. *)
    t.transfer_pending <- false;
    let now = Ctx.now t.ctx in
    let suspicious =
      Hashtbl.fold
        (fun _ (req, deadline) acc ->
          acc || (now >= deadline && not (Exec.was_executed t.exec req)))
        t.watched false
    in
    if suspicious then begin
      t.suspect_round <- t.suspect_round + 1;
      (* Push every watched deadline out by the (now larger) backoff:
         the next suspicion — of the successor primary — waits
         exponentially longer, and this sweep's on_suspect fires once
         per backoff period rather than every half-timeout. *)
      let deadline = watch_deadline t in
      let keys = Hashtbl.fold (fun k (r, _) acc -> (k, r) :: acc) t.watched [] in
      List.iter
        (fun (k, r) -> Hashtbl.replace t.watched k (r, deadline))
        keys;
      Poe_prof.Prof.(bump ix_suspicions);
      t.on_suspect ()
    end
    else if Exec.k_exec t.exec > t.last_vote_sent then
      (* Time-based vote: keeps dark replicas able to catch up even when
         the commit rate is below the checkpoint period. *)
      broadcast_vote t ~seqno:(Exec.k_exec t.exec)
  end;
  Ctx.schedule t.ctx ~delay:((cfg t).Config.view_timeout /. 2.0) (fun () ->
      sweep t)

let start t = sweep t
