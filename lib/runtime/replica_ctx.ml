module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Rng = Poe_simnet.Rng
module Kv_store = Poe_store.Kv_store
module Undo_log = Poe_store.Undo_log
module Chain = Poe_ledger.Chain
module Block = Poe_ledger.Block
module Sha256 = Poe_crypto.Sha256

(* The executed log: (seqno, digest) pairs in execution order, stored in
   chunks of [chunk_size] that are allocated on first use and never
   copied. Only the chunk directory (one pointer per chunk) grows. *)
module Exec_log = struct
  let chunk_size = 1024

  type t = {
    mutable seqnos : int array array;
    mutable digests : string array array;
    mutable len : int;
  }

  let create () = { seqnos = [||]; digests = [||]; len = 0 }

  let clear t =
    t.seqnos <- [||];
    t.digests <- [||];
    t.len <- 0

  let push t seqno digest =
    let c = t.len / chunk_size and i = t.len mod chunk_size in
    if c = Array.length t.seqnos then begin
      let grow dir = Array.append dir (Array.make (max 1 c) [||]) in
      t.seqnos <- grow t.seqnos;
      t.digests <- grow t.digests
    end;
    if Array.length t.seqnos.(c) = 0 then begin
      t.seqnos.(c) <- Array.make chunk_size 0;
      t.digests.(c) <- Array.make chunk_size ""
    end;
    t.seqnos.(c).(i) <- seqno;
    t.digests.(c).(i) <- digest;
    t.len <- t.len + 1

  let seqno_at t k = t.seqnos.(k / chunk_size).(k mod chunk_size)
  let digest_at t k = t.digests.(k / chunk_size).(k mod chunk_size)

  (* Seqnos increase along the log, so dropping the entries above
     [seqno] is a truncation from the end. *)
  let truncate_above t seqno =
    while t.len > 0 && seqno_at t (t.len - 1) > seqno do
      t.len <- t.len - 1;
      t.digests.(t.len / chunk_size).(t.len mod chunk_size) <- ""
    done

  let iter t f =
    for k = 0 to t.len - 1 do
      f (seqno_at t k) (digest_at t k)
    done

  let to_list t = List.init t.len (fun k -> (seqno_at t k, digest_at t k))
end

type behavior =
  | Honest
  | Silent
  | Equivocate
  | Keep_in_dark of int list
  | Stop_proposing

type t = {
  id : int;
  config : Config.t;
  cost : Cost.t;
  engine : Engine.t;
  net : Message.t Network.t;
  server : Server.t;
  stats : Stats.t;
  rng : Rng.t;
  store : Kv_store.t option;
  undo : Undo_log.t option;
  chain : Chain.t option;
  executed : Exec_log.t;
  threshold : (Poe_crypto.Threshold.scheme * Poe_crypto.Threshold.signer) option;
  mutable alive : bool;
  mutable behavior : behavior;
  (* Audit bookkeeping (see the safety auditor in lib/chaos): the last
     stable checkpoint, how many times a snapshot reset the execution
     bookkeeping, and a latch counting requests that were live-executed
     twice at once — an at-most-once violation. *)
  mutable stable : int;
  mutable snapshot_gen : int;
  exec_counts : Rid_table.t; (* request -> live executions *)
  reqs_by_seqno : (int, Message.request array) Hashtbl.t;
      (* executed above the stable checkpoint, for rollback *)
  mutable dup_execs : int;
  mutable dedup_skips : int;
  outbox : Message.t Poe_simnet.Parked.t;
      (* sends waiting for an output thread: one allocates no closure *)
}

let raw_send t ~dst ~bytes msg =
  Network.send t.net ~src:t.id ~dst ~bytes msg

(* A [Silent] replica is byzantine-mute: it keeps receiving and executing
   but suppresses every outbound message (votes, checkpoints, responses),
   unlike a fail-stop kill it can later flip back to [Honest]. *)
let sending t = t.alive && t.behavior <> Silent

let create ~id ~config ~cost ~engine ~net ~server ~stats ~rng ?threshold () =
  let store, undo, chain =
    if config.Config.materialize then begin
      let s = Kv_store.create () in
      Kv_store.load_ycsb s ~records:Poe_store.Ycsb.small_profile.records
        ~payload_bytes:Poe_store.Ycsb.small_profile.value_bytes;
      (Some s, Some (Undo_log.create s), Some (Chain.create ~initial_primary:0))
    end
    else (None, None, None)
  in
  (* The output jobs reach the context through [self], set as soon as the
     record exists. *)
  let self = ref None in
  let t =
    {
      id;
      config;
      cost;
      engine;
      net;
      server;
      stats;
      rng;
      store;
      undo;
      chain;
      threshold;
      executed = Exec_log.create ();
      alive = true;
      behavior = Honest;
      stable = -1;
      snapshot_gen = 0;
      exec_counts = Rid_table.create config;
      reqs_by_seqno = Hashtbl.create 1024;
      dup_execs = 0;
      dedup_skips = 0;
      outbox =
        Poe_simnet.Parked.create (fun dst bytes _ _ msg ->
            let t = Option.get !self in
            if sending t then raw_send t ~dst ~bytes msg);
    }
  in
  self := Some t;
  t

let id t = t.id
let config t = t.config
let cost t = t.cost
let now t = Engine.now t.engine
let rng t = t.rng
let stats t = t.stats
let server t = t.server

let is_primary_of t view = Config.primary_of_view t.config view = t.id

(* Shared trace shorthands: every protocol module stamps its events with
   this replica's id and simulated clock, so the (enabled-pre-guarded)
   boilerplate lives here once instead of in each protocol. *)
let trace_phase t ~cat ~view ~seqno phase =
  if Poe_obs.Trace.enabled () then
    Poe_obs.Trace.phase ~ts:(now t) ~node:t.id ~cat ~view ~seqno phase

let trace_instant ?view ?seqno ?args t ~cat what =
  if Poe_obs.Trace.enabled () then
    Poe_obs.Trace.instant ?view ?seqno ?args ~ts:(now t) ~node:t.id ~cat what

let alive t = t.alive

let kill t =
  t.alive <- false;
  Network.crash t.net t.id

let behavior t = t.behavior
let set_behavior t b = t.behavior <- b

(* All outbound traffic passes through the output threads: one Io charge
   covering thread overhead plus per-byte serialization, then the NIC. *)
let out_cost t ~bytes ~fanout =
  float_of_int fanout
  *. (t.cost.Cost.msg_out +. (float_of_int bytes *. t.cost.Cost.msg_per_byte))

let send_replica t ~dst ~bytes msg =
  if sending t then
    Server.submit t.server Server.Io ~cost:(out_cost t ~bytes ~fanout:1)
      (Poe_simnet.Parked.park t.outbox dst bytes 0 0 msg)

let send_hub t ~hub ~bytes msg =
  send_replica t ~dst:(t.config.Config.n + hub) ~bytes msg

let rec send_each t ~bytes msg = function
  | [] -> ()
  | dst :: dsts ->
      raw_send t ~dst ~bytes msg;
      send_each t ~bytes msg dsts

let broadcast_to t ~dsts ~bytes msg =
  if sending t then begin
    let fanout = List.length dsts in
    if fanout > 0 then
      Server.submit t.server Server.Io ~cost:(out_cost t ~bytes ~fanout)
        (fun () -> if sending t then send_each t ~bytes msg dsts)
  end

(* The replicas in id order, skipping this one unless [include_self]: one
   job and no destination list, so the words a broadcast allocates do not
   grow with n. *)
let broadcast_replicas ?(include_self = false) t ~bytes msg =
  let n = t.config.Config.n in
  let fanout = if include_self then n else n - 1 in
  if sending t && fanout > 0 then
    Server.submit t.server Server.Io ~cost:(out_cost t ~bytes ~fanout)
      (fun () ->
        if sending t then
          for dst = 0 to n - 1 do
            if include_self || dst <> t.id then raw_send t ~dst ~bytes msg
          done)

let schedule t ~delay f =
  Engine.schedule t.engine ~delay (fun () -> if t.alive then f ())

let work t resource ~cost f =
  if t.alive then
    Server.submit t.server resource ~cost (fun () -> if t.alive then f ())

let execute_batch t ~view ~seqno (batch : Message.batch) ~proof =
  (* At-most-once execution: a request whose key already has a live
     (not-rolled-back) execution is not re-applied to the state machine,
     no matter which slot or view carries it.  This is PBFT's classic
     reply-cache rule lifted to the execution layer — it closes the race
     where a view change re-proposes an in-flight request at a fresh
     seqno while the original slot also survives.  The skip is
     deterministic across replicas: execution is in seqno order, so
     replicas with equal prefixes skip equally. *)
  let result_digest =
    match (t.store, t.undo) with
    | Some store, Some undo ->
        (* SHA-256 over the batch digest, then each applied result. *)
        let results = Sha256.init () in
        Sha256.feed results batch.digest;
        let undos = ref [] in
        Array.iter
          (fun (r : Message.request) ->
            match r.op with
            | None -> ()
            | Some _ when Rid_table.mem t.exec_counts r ->
                t.dedup_skips <- t.dedup_skips + 1
            | Some op ->
                let result, u = Kv_store.apply store op in
                Sha256.feed results (Kv_store.result_to_string result);
                undos := u :: !undos)
          batch.reqs;
        Undo_log.record undo ~seqno (List.rev !undos);
        (match t.chain with
        | Some chain ->
            ignore
              (Chain.append chain ~seqno ~view ~batch_digest:batch.digest ~proof)
        | None -> ());
        Sha256.finalize results
    | _ -> batch.digest
  in
  Exec_log.push t.executed seqno batch.digest;
  (* At-most-once accounting: a request key whose live-execution count
     reaches 2 was applied twice without the first being rolled back.
     When a state machine is attached the dedup skip above makes that
     impossible by construction, so the count only feeds rollback
     bookkeeping; without one (accounting-only fixtures) the counter
     stays the tripwire it always was. *)
  let applied = t.store <> None && t.undo <> None in
  Hashtbl.replace t.reqs_by_seqno seqno batch.reqs;
  Array.iter
    (fun r ->
      if (not applied) && Rid_table.mem t.exec_counts r then
        t.dup_execs <- t.dup_execs + 1;
      Rid_table.incr t.exec_counts r)
    batch.reqs;
  result_digest

let seqnos_where t keep =
  Hashtbl.fold (fun s _ acc -> if keep s then s :: acc else acc) t.reqs_by_seqno []

let forget_exec_keys t ~above =
  seqnos_where t (fun s -> s > above)
  |> List.iter (fun s ->
         Array.iter (Rid_table.decr t.exec_counts) (Hashtbl.find t.reqs_by_seqno s);
         Hashtbl.remove t.reqs_by_seqno s)

let rollback_to t ~seqno =
  Exec_log.truncate_above t.executed seqno;
  forget_exec_keys t ~above:seqno;
  match t.undo with
  | None -> 0
  | Some undo ->
      let reverted = Undo_log.rollback_to undo ~seqno in
      Option.iter
        (fun chain -> ignore (Chain.rollback_to_seqno chain seqno))
        t.chain;
      reverted

(* Rollback never crosses a stable checkpoint (the undo log below it is
   truncated, and the auditor checks it), so the requests of slots at or
   below it are never decremented again: drop them. Their counts stay.
   For the same reason the ledger keeps only its suffix from the newest
   block at or below the checkpoint, whose hash binds everything older. *)
let stable_checkpoint t ~seqno =
  t.stable <- max t.stable seqno;
  List.iter (Hashtbl.remove t.reqs_by_seqno)
    (seqnos_where t (fun s -> s <= seqno));
  Option.iter (fun undo -> Undo_log.truncate undo ~upto:seqno) t.undo;
  Option.iter (fun chain -> Chain.prune_below chain ~seqno) t.chain

let checkpoint_snapshot t ~upto =
  match t.undo with
  | None -> ([], [])
  | Some undo ->
      let rows = Kv_store.rows (Undo_log.stable_state undo) in
      let blocks =
        match t.chain with
        | None -> []
        | Some chain ->
            Chain.blocks chain
            |> List.filter (fun (b : Block.t) -> b.seqno <= upto)
      in
      (rows, blocks)

let install_snapshot t ~upto ~rows ~blocks =
  Exec_log.clear t.executed;
  (* The transferred checkpoint replaces all bookkeeping: execution history
     below [upto] is no longer locally known, so the dedup tables restart
     (the auditor re-baselines on [snapshot_gen]). *)
  Rid_table.reset t.exec_counts;
  Hashtbl.reset t.reqs_by_seqno;
  t.stable <- max t.stable upto;
  t.snapshot_gen <- t.snapshot_gen + 1;
  (match t.store with
  | Some store when rows <> [] -> Kv_store.load_rows store rows
  | Some _ | None -> ());
  (match t.undo with
  | Some undo -> Undo_log.reset_to undo ~seqno:upto
  | None -> ());
  match (t.chain, blocks) with
  | Some chain, _ :: _ -> (
      match Chain.install chain blocks with
      | Ok () -> ()
      | Error e -> invalid_arg ("install_snapshot: bad ledger: " ^ e))
  | (Some _ | None), _ -> ()

let vote_certificate t quorum =
  match t.chain with
  | Some _ -> Block.Vote_certificate (Quorum.signers quorum)
  | None -> Block.No_proof

let threshold t = t.threshold

let store t = t.store
let chain t = t.chain

let executed_count t = t.executed.Exec_log.len

let executed_digests t = Exec_log.to_list t.executed

let iter_executed t f = Exec_log.iter t.executed f

let stable_seqno t = t.stable
let snapshot_generation t = t.snapshot_gen
let duplicate_executions t = t.dup_execs
let deduped_requests t = t.dedup_skips

let chain_block_hash t ~seqno =
  match t.chain with
  | None -> None
  | Some chain -> Option.map Block.hash (Chain.find_by_seqno chain seqno)
