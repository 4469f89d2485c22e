module Json = Poe_obs.Json

(* ------------------------------------------------------------------ *)
(* Counter registry                                                    *)
(* ------------------------------------------------------------------ *)

type kind = Sum | Max

(* Indices are hand-numbered so call sites compile to an array store
   with a constant index; [counter_defs] below must list names in the
   same order (checked at module init). *)
let ix_events_pushed = 0
let ix_events_popped = 1
let ix_queue_high_water = 2
let ix_msgs_sent = 3
let ix_bytes_sent = 4
let ix_msgs_delivered = 5
let ix_msgs_dropped = 6
let ix_batches_built = 7
let ix_batched_requests = 8
let ix_batches_closed = 9
let ix_closed_requests = 10
let ix_batches_executed = 11
let ix_txns_executed = 12
let ix_rollbacks = 13
let ix_slots_abandoned = 14
let ix_requests_submitted = 15
let ix_retransmits = 16
let ix_replies_completed = 17
let ix_sha256_blocks = 18
let ix_macs_computed = 19
let ix_checkpoints = 20
let ix_state_transfer_requests = 21
let ix_divergence_repairs = 22
let ix_snapshots_adopted = 23
let ix_suspicions = 24
let ix_view_changes = 25
let ix_new_views = 26
let ix_slow_paths = 27
let ix_commit_certs = 28
let ix_block_fetches = 29
let ix_pacemaker_timeouts = 30

let counter_defs =
  [|
    ("sim.events_pushed", Sum);
    ("sim.events_popped", Sum);
    ("sim.queue_high_water", Max);
    ("net.msgs_sent", Sum);
    ("net.bytes_sent", Sum);
    ("net.msgs_delivered", Sum);
    ("net.msgs_dropped", Sum);
    ("msg.batches_built", Sum);
    ("msg.batched_requests", Sum);
    ("pipeline.batches_closed", Sum);
    ("pipeline.batched_requests", Sum);
    ("exec.batches_executed", Sum);
    ("exec.txns_executed", Sum);
    ("exec.rollbacks", Sum);
    ("exec.slots_abandoned", Sum);
    ("hub.requests_submitted", Sum);
    ("hub.retransmits", Sum);
    ("hub.replies_completed", Sum);
    ("sha256.blocks_compressed", Sum);
    ("hmac.macs_computed", Sum);
    ("recovery.checkpoints", Sum);
    ("recovery.state_transfer_requests", Sum);
    ("recovery.divergence_repairs", Sum);
    ("recovery.snapshots_adopted", Sum);
    ("recovery.suspicions", Sum);
    ("view.changes", Sum);
    ("view.new_views", Sum);
    ("sbft.slow_paths", Sum);
    ("zyzzyva.commit_certs", Sum);
    ("hotstuff.block_fetches", Sum);
    ("hotstuff.pacemaker_timeouts", Sum);
  |]

let n_counters = Array.length counter_defs

let () = assert (n_counters = ix_pacemaker_timeouts + 1)

let cells_key : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make n_counters 0)

let cells () = Domain.DLS.get cells_key

let bump ix =
  let c = cells () in
  c.(ix) <- c.(ix) + 1

let bump_by ix n =
  let c = cells () in
  c.(ix) <- c.(ix) + n

let bump_max ix v =
  let c = cells () in
  if v > c.(ix) then c.(ix) <- v

(* ------------------------------------------------------------------ *)
(* Scoped regions: per-domain stack + per-domain accumulation table    *)
(* ------------------------------------------------------------------ *)

type rstat = {
  mutable calls : int;
  mutable r_wall : float;
  mutable r_self_wall : float;
  mutable r_alloc : float;
  mutable r_self_alloc : float;
  mutable r_minor : int;
  mutable r_major : int;
  mutable r_promoted : float;
}

type frame = {
  path : string;
  start_wall : float;
  start_alloc : float;
  start_minor : int;
  start_major : int;
  start_promoted : float;
  mutable child_wall : float;
  mutable child_alloc : float;
}

type dstate = {
  mutable stack : frame list;
  table : (string, rstat) Hashtbl.t;
}

let dstate_key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { stack = []; table = Hashtbl.create 32 })

let regions_on = Atomic.make false
let enable_regions () = Atomic.set regions_on true
let disable_regions () = Atomic.set regions_on false

let escape_frame name =
  String.map
    (fun c ->
      match c with
      | ';' -> ':'
      | ' ' | '\t' | '\n' | '\r' -> '_'
      | c -> c)
    name

let fresh_rstat () =
  {
    calls = 0;
    r_wall = 0.0;
    r_self_wall = 0.0;
    r_alloc = 0.0;
    r_self_alloc = 0.0;
    r_minor = 0;
    r_major = 0;
    r_promoted = 0.0;
  }

let find_rstat table path =
  match Hashtbl.find_opt table path with
  | Some r -> r
  | None ->
      let r = fresh_rstat () in
      Hashtbl.add table path r;
      r

let close_frame st fr =
  (* Measure first; everything below (stack pop, hashtable update)
     allocates, and those bytes belong to the *enclosing* region. *)
  let end_wall = Unix.gettimeofday () in
  let end_alloc = Gc.allocated_bytes () in
  let qs = Gc.quick_stat () in
  (match st.stack with
  | top :: rest when top == fr -> st.stack <- rest
  | _ ->
      (* Unbalanced close (cannot happen through [with_region], which
         pairs pushes and pops with [Fun.protect]); drop down to [fr]. *)
      let rec drop = function
        | top :: rest when top == fr -> rest
        | _ :: rest -> drop rest
        | [] -> []
      in
      st.stack <- drop st.stack);
  let wall = end_wall -. fr.start_wall in
  let alloc = end_alloc -. fr.start_alloc in
  let r = find_rstat st.table fr.path in
  r.calls <- r.calls + 1;
  r.r_wall <- r.r_wall +. wall;
  r.r_self_wall <- r.r_self_wall +. (wall -. fr.child_wall);
  r.r_alloc <- r.r_alloc +. alloc;
  r.r_self_alloc <- r.r_self_alloc +. (alloc -. fr.child_alloc);
  r.r_minor <- r.r_minor + (qs.Gc.minor_collections - fr.start_minor);
  r.r_major <- r.r_major + (qs.Gc.major_collections - fr.start_major);
  r.r_promoted <- r.r_promoted +. (qs.Gc.promoted_words -. fr.start_promoted);
  match st.stack with
  | parent :: _ ->
      parent.child_wall <- parent.child_wall +. wall;
      parent.child_alloc <- parent.child_alloc +. alloc
  | [] -> ()

let with_region name f =
  if not (Atomic.get regions_on) then f ()
  else begin
    let st = Domain.DLS.get dstate_key in
    let path =
      match st.stack with
      | [] -> escape_frame name
      | parent :: _ -> parent.path ^ ";" ^ escape_frame name
    in
    let qs = Gc.quick_stat () in
    let fr =
      {
        path;
        start_wall = Unix.gettimeofday ();
        start_alloc = Gc.allocated_bytes ();
        start_minor = qs.Gc.minor_collections;
        start_major = qs.Gc.major_collections;
        start_promoted = qs.Gc.promoted_words;
        child_wall = 0.0;
        child_alloc = 0.0;
      }
    in
    st.stack <- fr :: st.stack;
    Fun.protect ~finally:(fun () -> close_frame st fr) f
  end

(* ------------------------------------------------------------------ *)
(* Cross-domain merge                                                  *)
(* ------------------------------------------------------------------ *)

(* Pool workers flush into this accumulator after every job (the pool's
   job epilogue, installed by the harness); reads combine it with the
   calling domain's live cells. Sum and max are commutative, so totals
   never depend on worker scheduling. *)
let merge_mutex = Mutex.create ()
let merged_cells = Array.make n_counters 0
let merged_regions : (string, rstat) Hashtbl.t = Hashtbl.create 32

let merge_cells_into dst src =
  for i = 0 to n_counters - 1 do
    match snd counter_defs.(i) with
    | Sum -> dst.(i) <- dst.(i) + src.(i)
    | Max -> if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let merge_rstat_into dst src =
  dst.calls <- dst.calls + src.calls;
  dst.r_wall <- dst.r_wall +. src.r_wall;
  dst.r_self_wall <- dst.r_self_wall +. src.r_self_wall;
  dst.r_alloc <- dst.r_alloc +. src.r_alloc;
  dst.r_self_alloc <- dst.r_self_alloc +. src.r_self_alloc;
  dst.r_minor <- dst.r_minor + src.r_minor;
  dst.r_major <- dst.r_major + src.r_major;
  dst.r_promoted <- dst.r_promoted +. src.r_promoted

let flush_domain () =
  let c = cells () in
  let st = Domain.DLS.get dstate_key in
  Mutex.lock merge_mutex;
  merge_cells_into merged_cells c;
  Hashtbl.iter
    (fun path r -> merge_rstat_into (find_rstat merged_regions path) r)
    st.table;
  Mutex.unlock merge_mutex;
  Array.fill c 0 n_counters 0;
  Hashtbl.reset st.table

let reset () =
  let c = cells () in
  let st = Domain.DLS.get dstate_key in
  Mutex.lock merge_mutex;
  Array.fill merged_cells 0 n_counters 0;
  Hashtbl.reset merged_regions;
  Mutex.unlock merge_mutex;
  Array.fill c 0 n_counters 0;
  Hashtbl.reset st.table;
  st.stack <- []

let restart_max () =
  let c = cells () in
  Mutex.lock merge_mutex;
  Array.iteri
    (fun i (_, kind) ->
      if kind = Max then begin
        merged_cells.(i) <- 0;
        c.(i) <- 0
      end)
    counter_defs;
  Mutex.unlock merge_mutex

let counters () =
  let combined = Array.make n_counters 0 in
  Mutex.lock merge_mutex;
  Array.blit merged_cells 0 combined 0 n_counters;
  Mutex.unlock merge_mutex;
  merge_cells_into combined (cells ());
  Array.mapi (fun i v -> (fst counter_defs.(i), v)) combined

let domain_counters () =
  Array.mapi (fun i v -> (fst counter_defs.(i), v)) (cells ())

let delta ~older ~newer =
  Array.mapi
    (fun i (name, v) ->
      match snd counter_defs.(i) with
      | Sum -> (name, v - snd older.(i))
      | Max -> (name, v))
    newer

let sum_deltas ~older ~newer =
  List.filteri
    (fun i (_, d) -> snd counter_defs.(i) = Sum && d <> 0)
    (Array.to_list (delta ~older ~newer))

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type region = {
  path : string;
  calls : int;
  wall : float;
  self_wall : float;
  alloc : float;
  self_alloc : float;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
}

type snapshot = {
  counters : (string * int) array;
  regions : region list;
}

let snapshot () =
  let cs = counters () in
  let acc : (string, rstat) Hashtbl.t = Hashtbl.create 32 in
  Mutex.lock merge_mutex;
  Hashtbl.iter
    (fun path r -> merge_rstat_into (find_rstat acc path) r)
    merged_regions;
  Mutex.unlock merge_mutex;
  let st = Domain.DLS.get dstate_key in
  Hashtbl.iter (fun path r -> merge_rstat_into (find_rstat acc path) r) st.table;
  let regions =
    Hashtbl.fold
      (fun path (r : rstat) acc ->
        {
          path;
          calls = r.calls;
          wall = r.r_wall;
          self_wall = r.r_self_wall;
          alloc = r.r_alloc;
          self_alloc = r.r_self_alloc;
          minor_collections = r.r_minor;
          major_collections = r.r_major;
          promoted_words = r.r_promoted;
        }
        :: acc)
      acc []
    |> List.sort (fun a b -> compare a.path b.path)
  in
  { counters = cs; regions }

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let counter_value snap name =
  Array.fold_left
    (fun acc (n, v) -> if String.equal n name then v else acc)
    0 snap.counters

let replies snap = counter_value snap "hub.replies_completed"

let budgets snap =
  let n = replies snap in
  if n = 0 then []
  else
    Array.to_list snap.counters
    |> List.filteri (fun i _ -> snd counter_defs.(i) = Sum)
    |> List.map (fun (name, v) -> (name, float_of_int v /. float_of_int n))

let fsec = Printf.sprintf "%.6f"

let render_table ?(top = 20) snap =
  let b = Buffer.create 4096 in
  let mb x = x /. 1048576.0 in
  if snap.regions <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "regions (top %d by self wall-clock)\n" top);
    Buffer.add_string b
      (Printf.sprintf "  %10s %10s %8s %10s %10s  %s\n" "self s" "total s"
         "calls" "self MB" "total MB" "region");
    let by_self =
      List.sort (fun a b -> compare b.self_wall a.self_wall) snap.regions
    in
    List.iteri
      (fun i r ->
        if i < top then
          Buffer.add_string b
            (Printf.sprintf "  %10s %10s %8d %10.2f %10.2f  %s\n"
               (fsec r.self_wall) (fsec r.wall) r.calls (mb r.self_alloc)
               (mb r.alloc) r.path))
      by_self
  end;
  Buffer.add_string b "counters\n";
  Array.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-28s %d\n" name v))
    snap.counters;
  (match budgets snap with
  | [] -> ()
  | bs ->
      Buffer.add_string b
        (Printf.sprintf "budgets (per completed request, %d completed)\n"
           (replies snap));
      List.iter
        (fun (name, v) ->
          Buffer.add_string b (Printf.sprintf "  %-28s %s\n" name (fsec v)))
        bs);
  Buffer.contents b

let render_json snap =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"schema\":\"poe-profile-v1\",\"counters\":{";
  Json.add_sep b
    (fun (name, v) -> Printf.bprintf b "%s:%d" (Json.quote name) v)
    (Array.to_list snap.counters);
  Buffer.add_string b "},\"budgets\":{";
  Json.add_sep b
    (fun (name, v) -> Printf.bprintf b "%s:%s" (Json.quote name) (fsec v))
    (budgets snap);
  Buffer.add_string b "},\"regions\":[";
  Json.add_sep b
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"path\":%s,\"calls\":%d,\"wall_s\":%s,\"self_wall_s\":%s,\"alloc_bytes\":%.0f,\"self_alloc_bytes\":%.0f,\"gc\":{\"unstable\":true,\"minor_collections\":%d,\"major_collections\":%d,\"promoted_words\":%.0f}}"
           (Json.quote r.path) r.calls (Json.unstable r.wall)
           (Json.unstable r.self_wall) r.alloc r.self_alloc r.minor_collections
           r.major_collections r.promoted_words))
    snap.regions;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let render_folded snap =
  let b = Buffer.create 2048 in
  List.iter
    (fun r ->
      if r.calls > 0 then begin
        let us = int_of_float (Float.max 0.0 (r.self_wall *. 1e6)) in
        Buffer.add_string b (Printf.sprintf "%s %d\n" r.path us)
      end)
    snap.regions;
  Buffer.contents b

let render_budgets snap =
  let b = Buffer.create 1024 in
  let n = replies snap in
  Buffer.add_string b (Printf.sprintf "replies_completed %d\n" n);
  List.iter
    (fun (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s %d %s\n" name (counter_value snap name) (fsec v)))
    (budgets snap);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Bench wall-clock artifact                                           *)
(* ------------------------------------------------------------------ *)

type bench_figure = {
  fig_name : string;
  fig_wall_s : float;
  fig_alloc_bytes : float;
  fig_minor : int;
  fig_major : int;
  fig_promoted : float;
  fig_counters : (string * int) list;
}

let wallclock_json ~jobs ~quick ~scale ~clients figs =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"poe-bench-wallclock-v1\",\"jobs\":%d,\"quick\":%b,\"scale\":%s,\"clients\":%d,\"figures\":["
       jobs quick (fsec scale) clients);
  Json.add_sep b
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"figure\":%s,\"wall_s\":%s,\"allocated_bytes\":%.0f,\"gc\":{\"unstable\":true,\"minor_collections\":%d,\"major_collections\":%d,\"promoted_words\":%.0f},\"counters\":{"
           (Json.quote f.fig_name) (Json.unstable f.fig_wall_s)
           f.fig_alloc_bytes f.fig_minor f.fig_major f.fig_promoted);
      Json.add_sep b
        (fun (name, v) -> Printf.bprintf b "%s:%d" (Json.quote name) v)
        f.fig_counters;
      Buffer.add_string b "},\"budgets\":{";
      let repl =
        match List.assoc_opt "hub.replies_completed" f.fig_counters with
        | Some n when n > 0 -> n
        | _ -> 0
      in
      let is_sum name =
        Array.exists (fun (n, k) -> String.equal n name && k = Sum) counter_defs
      in
      if repl > 0 then
        Json.add_sep b
          (fun (name, v) ->
            Printf.bprintf b "%s:%s" (Json.quote name)
              (fsec (float_of_int v /. float_of_int repl)))
          (List.filter (fun (name, _) -> is_sum name) f.fig_counters);
      Buffer.add_string b "}}")
    figs;
  Buffer.add_string b "]}\n";
  Buffer.contents b
