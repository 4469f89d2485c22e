(* Calls are parked in a slab, a structure of arrays like
   [Event_queue]'s: slot [s] holds its value at [values.(s)], its ints at
   [ints.(4s .. 4s+3)], and [thunks.(s)] is its call. The first [n_free]
   entries of [free] are the free slots. The values array is an
   [Obj.t array] with an immediate filler, for the reasons
   [Event_queue] gives for its slab.

   A thunk names its slot, and a pending event holds the thunk, so a
   slot cannot move. The slab is therefore never resized: a full slab is
   replaced by one twice its size, and a slab that held fewer than an
   eighth of its slots at every park over as many calls as it has slots
   by one a quarter of its size. A replaced slab still serves the calls
   parked in it, and the GC takes it once they have all run. So after a
   storm a parked set gives back the memory it grew to, while a bursty
   but steady load keeps its slab. *)
type slab = {
  values : Obj.t array;
  ints : int array;
  thunks : (unit -> unit) array;
  free : int array;
  mutable n_free : int;
  mutable fired : int;  (* calls run in the current window *)
  mutable peak : int;  (* most slots taken in the current window *)
}

type 'a t = {
  run : int -> int -> int -> int -> 'a -> unit;
  mutable slab : slab;  (* where calls are parked; empty until the first *)
}

let empty = Obj.repr 0

let no_slab () =
  {
    values = [||];
    ints = [||];
    thunks = [||];
    free = [||];
    n_free = 0;
    fired = 0;
    peak = 0;
  }

let create run = { run; slab = no_slab () }

(* Copy the call out and free its slot before it runs: it may park
   another one, and take the slot at once. *)
let rec fire t slab s =
  let i = 4 * s in
  let a = slab.ints.(i) and b = slab.ints.(i + 1) and c = slab.ints.(i + 2)
  and d = slab.ints.(i + 3) in
  let x = Obj.obj slab.values.(s) in
  slab.values.(s) <- empty;
  slab.free.(slab.n_free) <- s;
  slab.n_free <- slab.n_free + 1;
  let cap = Array.length slab.thunks in
  slab.fired <- slab.fired + 1;
  if slab.fired = cap then begin
    if slab == t.slab && cap >= 64 && slab.peak < cap / 8 then
      t.slab <- make t (cap / 4);
    slab.fired <- 0;
    slab.peak <- cap - slab.n_free
  end;
  t.run a b c d x

and make t cap =
  let thunks = Array.make cap ignore in
  let slab =
    {
      values = Array.make cap empty;
      ints = Array.make (4 * cap) 0;
      thunks;
      free = Array.init cap (fun k -> cap - 1 - k);
      n_free = cap;
      fired = 0;
      peak = 0;
    }
  in
  for s = 0 to cap - 1 do
    thunks.(s) <- (fun () -> fire t slab s)
  done;
  slab

let park t a b c d x =
  if t.slab.n_free = 0 then
    t.slab <- make t (max 16 (2 * Array.length t.slab.thunks));
  let slab = t.slab in
  slab.n_free <- slab.n_free - 1;
  let taken = Array.length slab.thunks - slab.n_free in
  if taken > slab.peak then slab.peak <- taken;
  let s = slab.free.(slab.n_free) in
  let i = 4 * s in
  slab.ints.(i) <- a;
  slab.ints.(i + 1) <- b;
  slab.ints.(i + 2) <- c;
  slab.ints.(i + 3) <- d;
  slab.values.(s) <- Obj.repr x;
  slab.thunks.(s)
