(* Log-bucketed histogram: bucket boundaries grow geometrically by
   [bucket_ratio] from [lo] to [hi], giving ~9% worst-case relative
   error on quantiles over the full 1 ns .. 10 000 s span. *)
let lo = 1e-9
let hi = 1e4
let bucket_ratio = Float.exp (Float.log 2.0 /. 8.0) (* 2^(1/8) ~ 1.0905 *)

let log_ratio = Float.log bucket_ratio
let n_buckets = 2 + int_of_float (ceil (Float.log (hi /. lo) /. log_ratio))

type histogram = {
  mutable n : int;
  mutable sum : float;
  mutable max_v : float;
  buckets : int array;
}

type t = (string, histogram) Hashtbl.t

let create () : t = Hashtbl.create 64

let histogram t name =
  match Hashtbl.find_opt t name with
  | Some h -> h
  | None ->
      let h =
        { n = 0; sum = 0.0; max_v = 0.0; buckets = Array.make n_buckets 0 }
      in
      Hashtbl.replace t name h;
      h

let bucket_of v =
  if v <= lo then 0
  else if v >= hi then n_buckets - 1
  else
    let i = 1 + int_of_float (Float.log (v /. lo) /. log_ratio) in
    if i >= n_buckets then n_buckets - 1 else i

(* Upper edge of bucket [i]: every sample in it is <= this value. *)
let bucket_upper i = if i = 0 then lo else lo *. Float.pow bucket_ratio (float_of_int i)

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v > h.max_v then h.max_v <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let hist_count h = h.n
let hist_sum h = h.sum
let hist_max h = h.max_v

let quantile h q =
  if h.n = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = max 1 (int_of_float (ceil (q *. float_of_int h.n))) in
    let cum = ref 0 in
    let result = ref (bucket_upper (n_buckets - 1)) in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + h.buckets.(i);
         if !cum >= target then begin
           result := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    (* The histogram's max is a tighter bound than the top bucket edge. *)
    Float.min !result h.max_v
  end

(* ------------------------------------------------------------------ *)
(* Current registry                                                    *)

(* Domain-local for the same reason as [Trace.current]: parallel
   simulation jobs must not share (and race on) one registry. *)
let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let set_current t = current () := Some t
let clear_current () = current () := None
let enabled () = match !(current ()) with Some _ -> true | None -> false
let current_registry () = !(current ())

let hobs name v =
  match !(current ()) with None -> () | Some t -> observe (histogram t name) v

(* ------------------------------------------------------------------ *)
(* Dump                                                                *)

let pp_summary fmt t =
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare in
  if names <> [] then begin
    Format.fprintf fmt "histograms:%41s %10s %10s %10s %10s %10s@." "count"
      "mean" "p50" "p95" "p99" "max";
    List.iter
      (fun name ->
        let h = Hashtbl.find t name in
        let mean = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n in
        Format.fprintf fmt "  %-40s %9d %10.6f %10.6f %10.6f %10.6f %10.6f@."
          name h.n mean (quantile h 0.50) (quantile h 0.95) (quantile h 0.99)
          h.max_v)
      names
  end
