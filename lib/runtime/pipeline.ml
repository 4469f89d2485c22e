type t = {
  ctx : Replica_ctx.t;
  on_batch : Message.batch -> unit;
  queue : Message.request Queue.t;
  seen : Rid_table.t; (* requests ever enqueued *)
  mutable in_flight : int;
  mutable timer_armed : bool; (* a partial-batch timer is pending *)
  mutable timer_gen : int;
      (* bumped to supersede the pending timer: a timer's closure acts
         only if the generation is still the one it was armed under *)
}

let create ~ctx ~on_batch () =
  {
    ctx;
    on_batch;
    queue = Queue.create ();
    seen = Rid_table.create (Replica_ctx.config ctx);
    in_flight = 0;
    timer_armed = false;
    timer_gen = 0;
  }

let in_flight t = t.in_flight
let queued t = Queue.length t.queue

let already_proposed t req = Rid_table.mem t.seen req
let mark_proposed t req = Rid_table.add t.seen req

let config t = Replica_ctx.config t.ctx

(* Close a batch of up to batch_size requests and hand it to the protocol
   after charging the batch-thread CPU (per-request work plus the digest). *)
let close_batch t =
  let cfg = config t in
  let size = min cfg.Config.batch_size (Queue.length t.queue) in
  if size > 0 then begin
    let reqs = List.init size (fun _ -> Queue.pop t.queue) in
    Poe_prof.Prof.(bump ix_batches_closed);
    Poe_prof.Prof.(bump_by ix_closed_requests size);
    if Poe_obs.Trace.enabled () then
      Poe_obs.Trace.instant ~ts:(Replica_ctx.now t.ctx)
        ~node:(Replica_ctx.id t.ctx) ~cat:"pipeline"
        ~args:
          [
            ("size", Poe_obs.Trace.I size);
            ("queued", Poe_obs.Trace.I (Queue.length t.queue));
          ]
        "close_batch";
    if Poe_obs.Metrics.enabled () then begin
      Poe_obs.Metrics.hobs "pipeline.batch_size" (float_of_int size);
      Poe_obs.Metrics.hobs "pipeline.queue_depth"
        (float_of_int (Queue.length t.queue))
    end;
    let cost = Replica_ctx.cost t.ctx in
    let cpu =
      (float_of_int size *. cost.Cost.batch_per_req)
      +. Cost.hash_cost cost ~bytes:(size * Message.Wire.per_txn)
    in
    Replica_ctx.work t.ctx Server.Batcher ~cost:cpu (fun () ->
        let batch =
          Message.batch_of_requests ~materialize:cfg.Config.materialize reqs
        in
        t.on_batch batch)
  end

let cancel_timer t =
  if t.timer_armed then begin
    t.timer_gen <- t.timer_gen + 1;
    t.timer_armed <- false
  end

let rec try_dispatch t =
  let cfg = config t in
  if t.in_flight < cfg.Config.window && not (Queue.is_empty t.queue) then
    if Queue.length t.queue >= cfg.Config.batch_size then begin
      cancel_timer t;
      t.in_flight <- t.in_flight + 1;
      close_batch t;
      try_dispatch t
    end
    else if not t.timer_armed then begin
      (* Partial batch: wait batch_delay for more requests before closing. *)
      t.timer_armed <- true;
      let gen = t.timer_gen in
      Replica_ctx.schedule t.ctx ~delay:cfg.Config.batch_delay (fun () ->
          if t.timer_gen = gen then begin
            t.timer_armed <- false;
            if t.in_flight < cfg.Config.window && not (Queue.is_empty t.queue)
            then begin
              t.in_flight <- t.in_flight + 1;
              close_batch t;
              try_dispatch t
            end
          end)
    end

let add_request t req =
  if not (Rid_table.mem t.seen req) then begin
    Rid_table.incr t.seen req;
    Queue.push req t.queue;
    try_dispatch t
  end

let reset_window t =
  t.in_flight <- 0;
  try_dispatch t

let seqno_closed t =
  if t.in_flight > 0 then t.in_flight <- t.in_flight - 1;
  try_dispatch t

let drain_pending t =
  cancel_timer t;
  let reqs = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  (* Keep the keys in [seen]: the caller immediately re-proposes these
     requests itself; duplicates arriving later must still be dropped. *)
  reqs
