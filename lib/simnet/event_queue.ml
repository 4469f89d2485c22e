module Prof = Poe_prof.Prof

(* Structure of arrays. Heap position [i] holds the key
   [(times.(i), seqs.(i))] and the slab slot [slots.(i)] of its payload.
   A payload stays in its slab slot from push to pop, so sifting moves
   only ints and floats: no write barrier, and no pointer to chase.
   Positions [len .. cap-1] of [slots] hold the free slot ids, so
   [slots] is always a permutation of [0 .. cap-1].

   The slab is an [Obj.t array] created with an immediate filler, never
   with a payload: a [float] payload must not turn it into a flat float
   array, and a slot emptied at pop must not keep its payload alive.
   Slot [s] keeps its payload at [2s] and, at [2s+1], the boxed time
   [push] was handed: [min_time] returns that box, so reading the
   earliest time allocates nothing (a float returned from a function is
   boxed). A stale time box is left in place until the slot is reused. *)
type 'a t = {
  mutable times : float array;  (* all four arrays are empty until the first push *)
  mutable seqs : int array;
  mutable slots : int array;
  mutable slab : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
}

let empty = Obj.repr 0

let create () =
  { times = [||]; seqs = [||]; slots = [||]; slab = [||]; len = 0; next_seq = 0 }

(* 4-ary: half the depth of a binary heap, and the four children of a
   node sit next to each other in [times]. It beat the binary heap at
   every depth from 100 to 160k pending events (DESIGN.md). *)
let arity = 4

let grow t =
  let cap = Array.length t.times in
  let cap' = max 64 (2 * cap) in
  let extend a filler =
    let b = Array.make cap' filler in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  let slab = Array.make (2 * cap') empty in
  Array.blit t.slab 0 slab 0 (2 * cap);
  t.slab <- slab;
  (* The queue is full, so slots [0 .. cap-1] are all in use and the new
     ones are all free. *)
  t.slots <- Array.init cap' (fun i -> if i < cap then t.slots.(i) else i)

let push t ~time payload =
  if t.len = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.len) in
  t.slab.(2 * slot) <- Obj.repr payload;
  t.slab.((2 * slot) + 1) <- Obj.repr time;
  (* Sift the hole up. [seq] is the largest yet, so it loses every tie. *)
  let i = ref t.len in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / arity in
    if time < times.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  t.len <- t.len + 1;
  Prof.bump Prof.ix_events_pushed;
  Prof.bump_max Prof.ix_queue_high_water t.len

let pop_min t =
  if t.len = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  Prof.bump Prof.ix_events_popped;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let top = slots.(0) in
  let payload = t.slab.(2 * top) in
  t.slab.(2 * top) <- empty;
  let len = t.len - 1 in
  t.len <- len;
  (* Sift the last entry down from the root through a hole. *)
  let time = times.(len) and seq = seqs.(len) and slot = slots.(len) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let first = (arity * !i) + 1 in
    if first >= len then continue := false
    else begin
      let best = ref first in
      let last = min (first + arity - 1) (len - 1) in
      for c = first + 1 to last do
        let tc = times.(c) and tb = times.(!best) in
        if tc < tb || (tc = tb && seqs.(c) < seqs.(!best)) then best := c
      done;
      let b = !best in
      let tb = times.(b) in
      if tb < time || (tb = time && seqs.(b) < seq) then begin
        times.(!i) <- tb;
        seqs.(!i) <- seqs.(b);
        slots.(!i) <- slots.(b);
        i := b
      end
      else continue := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  slots.(len) <- top;
  Obj.obj payload

let min_time t =
  if t.len = 0 then infinity
  else (Obj.obj t.slab.((2 * t.slots.(0)) + 1) : float)

let pop t =
  if t.len = 0 then None
  else
    let time = min_time t in
    Some (time, pop_min t)

let peek_time t = if t.len = 0 then None else Some (min_time t)

let size t = t.len
let is_empty t = t.len = 0

(* Keep the arrays: a cleared queue is about to be refilled (engine reset
   between rounds), and throwing them away forces the grow sequence all
   over again. The pending payloads are dropped so they can be
   collected. Resetting [next_seq] also restores the fresh-queue
   tie-break order, so a reused queue schedules identically to a new
   one. *)
let clear t =
  for i = 0 to t.len - 1 do
    t.slab.(2 * t.slots.(i)) <- empty
  done;
  t.len <- 0;
  t.next_seq <- 0
