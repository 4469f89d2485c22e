type t = {
  mutable clock : float;
  queue : (unit -> unit) Event_queue.t;
  root_rng : Rng.t;
  mutable processed : int;
  mutable step_budget : int;
      (* remaining events this engine may still process, negative when
         unbounded; [0] freezes the engine (step/run become no-ops) so a
         hung simulation terminates in bounded host time instead of
         spinning forever *)
}

let create ?(seed = 42) () =
  {
    clock = 0.0;
    queue = Event_queue.create ();
    root_rng = Rng.create seed;
    processed = 0;
    step_budget = -1;
  }

let now t = t.clock

let rng t = t.root_rng

(* The queue keeps the boxed time it is handed and returns that box as
   the next clock, so an event allocates one float box at most: none when
   it fires at the current instant, which reuses the clock's own box. *)
let schedule t ~delay f =
  if delay <= 0.0 then Event_queue.push t.queue ~time:t.clock f
  else Event_queue.push t.queue ~time:(t.clock +. delay) f

let set_step_budget t budget =
  t.step_budget <- (match budget with Some k -> k | None -> -1)

let budget_exhausted t = t.step_budget = 0

(* Fire the earliest event, whose time the caller has just read: the box
   [Event_queue.min_time] returns is the one [schedule] pushed, and it
   becomes the clock as it is. *)
let fire t time =
  let f = Event_queue.pop_min t.queue in
  t.clock <- time;
  t.processed <- t.processed + 1;
  if t.step_budget > 0 then t.step_budget <- t.step_budget - 1;
  f ()

let step t =
  if budget_exhausted t || Event_queue.is_empty t.queue then false
  else begin
    fire t (Event_queue.min_time t.queue);
    true
  end

let run ?until t =
  let limit = match until with Some limit -> limit | None -> infinity in
  let continue = ref true in
  while !continue do
    if Event_queue.is_empty t.queue then continue := false
    else
      let time = Event_queue.min_time t.queue in
      if time > limit then begin
        t.clock <- limit;
        continue := false
      end
      else if budget_exhausted t then continue := false
      else fire t time
  done

let pending_events t = Event_queue.size t.queue

let processed_events t = t.processed
