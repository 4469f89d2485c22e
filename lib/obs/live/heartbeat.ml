module Json = Poe_obs.Json

type replica_sample = {
  r_id : int;
  r_view : int;
  r_exec : int;
  r_commit : int;
  r_alive : bool;
}

type sample = {
  hb_seq : int;
  hb_ts : float;
  hb_replicas : replica_sample list;
  hb_queue : int;
  hb_inflight : int;
  hb_completed : int;
  hb_oldest_age : float;
  hb_deltas : (string * int) list;
}

type t = {
  interval : float;
  tail_cap : int;
  all : Buffer.t; (* every line, in order *)
  tail : string Queue.t; (* last [tail_cap] lines *)
  mutable count : int;
  mutable last : sample option;
}

let create ?(tail = 128) ~interval () =
  if interval <= 0.0 then invalid_arg "Heartbeat.create: interval > 0";
  if tail < 1 then invalid_arg "Heartbeat.create: tail >= 1";
  {
    interval;
    tail_cap = tail;
    all = Buffer.create 4096;
    tail = Queue.create ();
    count = 0;
    last = None;
  }

let interval t = t.interval
let count t = t.count
let last t = t.last

(* Same fixed-precision float rendering as the trace exporters, so the
   stream is byte-stable for a fixed seed. *)
let add_float buf f = Buffer.add_string buf (Printf.sprintf "%.9f" f)

let line_of_sample ?wall s =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "{\"hb\":%d,\"ts\":" s.hb_seq;
  add_float buf s.hb_ts;
  Buffer.add_string buf ",\"replicas\":[";
  Json.add_sep buf
    (fun r ->
      Printf.bprintf buf
        "{\"id\":%d,\"view\":%d,\"exec\":%d,\"commit\":%d,\"alive\":%b}" r.r_id
        r.r_view r.r_exec r.r_commit r.r_alive)
    s.hb_replicas;
  Printf.bprintf buf "],\"queue\":%d,\"inflight\":%d,\"completed\":%d"
    s.hb_queue s.hb_inflight s.hb_completed;
  Buffer.add_string buf ",\"oldest_age\":";
  add_float buf s.hb_oldest_age;
  Buffer.add_string buf ",\"deltas\":{";
  Json.add_sep buf
    (fun (k, v) ->
      Json.escape buf k;
      Printf.bprintf buf ":%d" v)
    s.hb_deltas;
  Buffer.add_char buf '}';
  (match wall with
  | Some w ->
      (* Host time: useful for eyeballing progress, poison for diffing —
         tagged exactly like BENCH_wallclock.json's host fields so
         consumers (and Json.strip_unstable) can drop it. *)
      Printf.bprintf buf ",\"wall\":%s" (Json.unstable w)
  | None -> ());
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let record ?wall t s =
  let wall = match wall with Some w -> w | None -> Unix.gettimeofday () in
  let line = line_of_sample ~wall s in
  Buffer.add_string t.all line;
  Queue.push line t.tail;
  if Queue.length t.tail > t.tail_cap then ignore (Queue.pop t.tail);
  t.count <- t.count + 1;
  t.last <- Some s

let to_jsonl t = Buffer.contents t.all

let tail_jsonl t =
  let buf = Buffer.create 4096 in
  Queue.iter (Buffer.add_string buf) t.tail;
  Buffer.contents buf
