(* Three ints per client slot, in one array: [base] and [lo] bound the
   interval of rids counted once, and [top] is one above the largest rid
   that has had an exception in the slot since the last reset (0: none),
   so a rid at or above it needs no exceptions lookup.

   Invariant: [exceptions] holds exactly the requests whose count differs
   from their slot's default (1 inside the interval, 0 outside; always 0
   for a request without a slot). Every interval move in [set_at] changes
   the default of the updated rid only, and [store] then re-normalizes
   that rid, so the invariant — hence exactness — survives each update. *)
type t = {
  clients_per_hub : int;
  n_slots : int;
  mutable cells : int array;
  exceptions : (int, int) Hashtbl.t; (* request key -> count *)
}

let create (config : Config.t) =
  {
    clients_per_hub = config.clients_per_hub;
    n_slots = config.n_hubs * config.clients_per_hub;
    cells = [||];
    exceptions = Hashtbl.create 16;
  }

(* Index of the request's first cell, or -1 when its client has no slot. *)
let cell t (r : Message.request) =
  if r.hub >= 0 && r.client >= 0 && r.client < t.clients_per_hub then
    let s = (r.hub * t.clients_per_hub) + r.client in
    if s < t.n_slots then 3 * s else -1
  else -1

let exception_count t r ~default =
  match Hashtbl.find_opt t.exceptions (Message.request_key r) with
  | Some n -> n
  | None -> default

let default_at c i rid = if c.(i) <= rid && rid < c.(i + 1) then 1 else 0

let count_at t (r : Message.request) i =
  let c = t.cells in
  let d = default_at c i r.rid in
  if r.rid >= c.(i + 2) then d else exception_count t r ~default:d

let count t r =
  let i = cell t r in
  if i < 0 then exception_count t r ~default:0
  else if i >= Array.length t.cells then 0
  else count_at t r i

let mem t r = count t r >= 1

(* Grow the cells by doubling until they cover the slot at [i]; a slot
   never touched since the last reset reads as an empty interval. *)
let ensure t i =
  let len = Array.length t.cells in
  if i >= len then begin
    let rec grow slots = if 3 * slots > i then slots else grow (2 * slots) in
    let slots = min t.n_slots (grow (max 16 (len / 3))) in
    let cells = Array.make (3 * slots) 0 in
    Array.blit t.cells 0 cells 0 len;
    t.cells <- cells
  end

(* Record [n] as the count of [r], whose slot's interval is final. *)
let store t (r : Message.request) i n =
  let c = t.cells in
  if n = default_at c i r.rid then begin
    if r.rid < c.(i + 2) then
      Hashtbl.remove t.exceptions (Message.request_key r)
  end
  else begin
    Hashtbl.replace t.exceptions (Message.request_key r) n;
    if r.rid >= c.(i + 2) then c.(i + 2) <- r.rid + 1
  end

(* Move the interval's top onto [r.rid] when that makes [n] its default
   (the next rid executing, or the newest rolling back), or re-base an
   empty interval there (a client's first rid after a reset); then
   store. *)
let set_at t (r : Message.request) i n =
  let c = t.cells and rid = r.rid in
  let base = c.(i) and lo = c.(i + 1) in
  if n = 1 && rid = lo then c.(i + 1) <- lo + 1
  else if n = 1 && base = lo then begin
    c.(i) <- rid;
    c.(i + 1) <- rid + 1
  end
  else if n = 0 && rid = lo - 1 && base <= rid then c.(i + 1) <- rid;
  store t r i n

let set t r n =
  let i = cell t r in
  if i >= 0 then begin
    ensure t i;
    set_at t r i n
  end
  else if n = 0 then Hashtbl.remove t.exceptions (Message.request_key r)
  else Hashtbl.replace t.exceptions (Message.request_key r) n

let incr t (r : Message.request) =
  let i = cell t r in
  let c = t.cells in
  if i >= 0 && i < Array.length c && r.rid = c.(i + 1) && r.rid >= c.(i + 2)
  then c.(i + 1) <- r.rid + 1 (* the client's next rid: count 0 -> 1 *)
  else set t r (count t r + 1)

let decr t r =
  let n = count t r in
  if n > 0 then set t r (n - 1)

let add t r = if not (mem t r) then incr t r
let remove t r = if count t r > 0 then set t r 0

let reset t =
  Array.fill t.cells 0 (Array.length t.cells) 0;
  Hashtbl.reset t.exceptions
