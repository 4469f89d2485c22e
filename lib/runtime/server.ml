module Engine = Poe_simnet.Engine
module Trace = Poe_obs.Trace
module Metrics = Poe_obs.Metrics

type resource = Io | Batcher | Worker | Execute

let resource_name = function
  | Io -> "io"
  | Batcher -> "batcher"
  | Worker -> "worker"
  | Execute -> "execute"

(* Histogram names (queueing wait, service time), as literals so a
   metrics-on job builds no string. *)
let histograms = function
  | Io -> ("server.io.wait", "server.io.service")
  | Batcher -> ("server.batcher.wait", "server.batcher.service")
  | Worker -> ("server.worker.wait", "server.worker.service")
  | Execute -> ("server.execute.wait", "server.execute.service")

(* Trace thread ids: 0 is the node's protocol track; lanes get 1..4. *)
let resource_tid = function Io -> 1 | Batcher -> 2 | Worker -> 3 | Execute -> 4

(* [free_at.(i)] is when lane [i] next becomes idle, and the cell after
   the last lane accumulates the work submitted: a float array stores it
   unboxed, where a [mutable float] field of this record would box every
   update. *)
type pool = { free_at : float array; lanes : int }

type t = {
  engine : Engine.t;
  node : int;
  io : pool;
  batcher : pool;
  worker : pool;
  execute : pool;
}

let make_pool lanes =
  if lanes < 1 then invalid_arg "Server: lanes >= 1";
  { free_at = Array.make (lanes + 1) 0.0; lanes }

let create ~engine ?(node = -1) ?(io_lanes = 8) ?(batcher_lanes = 2)
    ?(worker_lanes = 1) ?(execute_lanes = 1) () =
  {
    engine;
    node;
    io = make_pool io_lanes;
    batcher = make_pool batcher_lanes;
    worker = make_pool worker_lanes;
    execute = make_pool execute_lanes;
  }

let node t = t.node

let pool t = function
  | Io -> t.io
  | Batcher -> t.batcher
  | Worker -> t.worker
  | Execute -> t.execute

let earliest_free pool =
  let best = ref 0 in
  for i = 1 to pool.lanes - 1 do
    if pool.free_at.(i) < pool.free_at.(!best) then best := i
  done;
  !best

let submit t resource ~cost k =
  if cost < 0.0 then invalid_arg "Server.submit: negative cost";
  let pool = pool t resource in
  let lane = earliest_free pool in
  let now = Engine.now t.engine in
  let free_at = pool.free_at.(lane) in
  (* [Float.max], without the call: times are never NaN or -0. *)
  let start = if free_at > now then free_at else now in
  let finish = start +. cost in
  pool.free_at.(lane) <- finish;
  pool.free_at.(pool.lanes) <- pool.free_at.(pool.lanes) +. cost;
  (* Hot path: both emitters are pre-guarded so a disabled run pays a
     load-and-branch and allocates nothing. Zero-cost jobs are pure
     event-ordering hops, not work; they would only add noise. *)
  if cost > 0.0 then begin
    if Trace.enabled () then
      Trace.complete ~tid:(resource_tid resource)
        ~args:[ ("wait", Trace.F (start -. now)); ("lane", Trace.I lane) ]
        ~ts:start ~dur:cost ~node:t.node ~cat:"server"
        (resource_name resource);
    if Metrics.enabled () then begin
      let wait, service = histograms resource in
      Metrics.hobs wait (start -. now);
      Metrics.hobs service cost
    end
  end;
  Engine.schedule t.engine ~delay:(finish -. now) k

(* [busy] counts a job's whole cost when it is submitted. Past [now] each
   lane runs its queued jobs back to back up to [free_at], so that tail
   is exactly the work handed in but not yet done. *)
let busy_seconds t resource =
  let pool = pool t resource in
  let now = Engine.now t.engine in
  let busy = ref pool.free_at.(pool.lanes) in
  for i = 0 to pool.lanes - 1 do
    busy := !busy -. Float.max 0.0 (pool.free_at.(i) -. now)
  done;
  !busy

let backlog t resource =
  let pool = pool t resource in
  let now = Engine.now t.engine in
  let earliest = pool.free_at.(earliest_free pool) in
  Float.max 0.0 (earliest -. now)
