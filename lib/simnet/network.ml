type 'msg t = {
  engine : Engine.t;
  n_nodes : int;
  latency : Latency.t;
  bandwidth : float option;
  mutable loss_probability : float;
  mutable latency_factor : float;
  rng : Rng.t;
  handlers : (src:int -> bytes:int -> 'msg -> unit) option array;
  crashed : bool array;
  nic_free_at : float array;   (* when each node's outgoing NIC frees up *)
  blocked : (int * int, unit) Hashtbl.t;
  mutable sent_messages : int;
  mutable sent_bytes : int;
  mutable next_mid : int;
      (* monotone message id; ties a "send" trace event to its matching
         "deliver"/"drop" so the analysis layer can build a causal graph *)
  wire : 'msg Parked.t;
      (* messages in flight: a delivery event allocates no closure *)
}

let n_nodes t = t.n_nodes
let engine t = t.engine

let check_node t id =
  if id < 0 || id >= t.n_nodes then invalid_arg "Network: bad node id"

let set_handler t id handler =
  check_node t id;
  t.handlers.(id) <- Some handler

module Trace = Poe_obs.Trace
module Prof = Poe_prof.Prof

(* Hot path: tracing is pre-guarded so a disabled run pays one
   load-and-branch per message and allocates nothing. *)
let trace_drop t ~mid ~src ~dst ~bytes =
  Prof.bump Prof.ix_msgs_dropped;
  if Trace.enabled () then
    Trace.instant ~ts:(Engine.now t.engine) ~node:src ~cat:"net"
      ~args:[ ("mid", Trace.I mid); ("dst", Trace.I dst); ("bytes", Trace.I bytes) ]
      "drop"

let deliver t ~mid ~src ~dst ~bytes msg =
  if t.crashed.(dst) then trace_drop t ~mid ~src ~dst ~bytes
  else
    match t.handlers.(dst) with
    | None -> trace_drop t ~mid ~src ~dst ~bytes
    | Some handler ->
        Prof.bump Prof.ix_msgs_delivered;
        if Trace.enabled () then
          Trace.instant ~ts:(Engine.now t.engine) ~node:dst ~cat:"net"
            ~args:
              [ ("mid", Trace.I mid); ("src", Trace.I src); ("bytes", Trace.I bytes) ]
            "deliver";
        handler ~src ~bytes msg

let create ~engine ~n_nodes ~latency ?(bandwidth_bytes_per_s = None)
    ?(loss_probability = 0.0) () =
  if n_nodes <= 0 then invalid_arg "Network.create";
  (* The delivery calls reach the network through [self], set as soon as
     the record exists. *)
  let self = ref None in
  let t =
    {
      engine;
      n_nodes;
      latency;
      bandwidth = bandwidth_bytes_per_s;
      loss_probability;
      latency_factor = 1.0;
      rng = Rng.split (Engine.rng engine);
      handlers = Array.make n_nodes None;
      crashed = Array.make n_nodes false;
      nic_free_at = Array.make n_nodes 0.0;
      blocked = Hashtbl.create 16;
      sent_messages = 0;
      sent_bytes = 0;
      next_mid = 0;
      wire =
        Parked.create (fun mid src dst bytes msg ->
            deliver (Option.get !self) ~mid ~src ~dst ~bytes msg);
    }
  in
  self := Some t;
  t

(* A lossy drop still left the sender, so it counts as sent. *)
let count_sent t ~bytes =
  t.sent_messages <- t.sent_messages + 1;
  t.sent_bytes <- t.sent_bytes + bytes;
  Prof.bump Prof.ix_msgs_sent;
  Prof.bump_by Prof.ix_bytes_sent bytes

let send t ~src ~dst ~bytes msg =
  check_node t src;
  check_node t dst;
  let mid = t.next_mid in
  t.next_mid <- mid + 1;
  if
    t.crashed.(src)
    || (Hashtbl.length t.blocked > 0 && Hashtbl.mem t.blocked (src, dst))
  then trace_drop t ~mid ~src ~dst ~bytes
  else if t.loss_probability > 0.0 && Rng.bool t.rng ~p:t.loss_probability
  then begin
    count_sent t ~bytes;
    trace_drop t ~mid ~src ~dst ~bytes
  end
  else begin
    count_sent t ~bytes;
    if Trace.enabled () then
      Trace.instant ~ts:(Engine.now t.engine) ~node:src ~cat:"net"
        ~args:[ ("mid", Trace.I mid); ("dst", Trace.I dst); ("bytes", Trace.I bytes) ]
        "send";
    let now = Engine.now t.engine in
    let departure =
      match t.bandwidth with
      | None -> now
      | Some bw ->
          (* The NIC serializes outgoing messages one after another.
             [Float.max], without the call that boxes its arguments:
             times are never NaN or -0. *)
          let free_at = t.nic_free_at.(src) in
          let start = if free_at > now then free_at else now in
          let finish = start +. (float_of_int bytes /. bw) in
          t.nic_free_at.(src) <- finish;
          finish
    in
    let arrival =
      departure
      +. (Latency.sample t.latency t.rng *. t.latency_factor)
    in
    Engine.schedule t.engine ~delay:(arrival -. now)
      (Parked.park t.wire mid src dst bytes msg)
  end

let crash t id =
  check_node t id;
  t.crashed.(id) <- true

let recover t id =
  check_node t id;
  t.crashed.(id) <- false

let is_crashed t id =
  check_node t id;
  t.crashed.(id)

let block_link t ~src ~dst = Hashtbl.replace t.blocked (src, dst) ()

let unblock_link t ~src ~dst = Hashtbl.remove t.blocked (src, dst)

let heal_partitions t = Hashtbl.reset t.blocked

let set_loss t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Network.set_loss";
  t.loss_probability <- p

let loss t = t.loss_probability

let set_latency_factor t f =
  if f <= 0.0 then invalid_arg "Network.set_latency_factor";
  t.latency_factor <- f

let latency_factor t = t.latency_factor

let sent_messages t = t.sent_messages
let sent_bytes t = t.sent_bytes
