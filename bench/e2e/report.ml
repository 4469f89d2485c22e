(* What every mode of the benchmark shares: the host clock, named metric
   values, the benchmark's own host-time spans, JSON output, and the order
   statistics the run and compare modes report. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* A ratio with no base (say, per reply when a check already failed
   because nothing was replied) reads 0 rather than inf or nan. *)
let div a b = if b = 0.0 then 0.0 else a /. b

(* Spans: one per benchmark phase (setup, warmup, measure) and per micro op,
   nested by call order, kept in memory and written once at exit. *)
type span = { s_name : string; s_parent : string; s_start : int64; s_end : int64 }

let spans : span list ref = ref []
let open_spans : string list ref = ref []

let span name f =
  let parent = match !open_spans with p :: _ -> p | [] -> "" in
  open_spans := name :: !open_spans;
  let s_start = now_ns () in
  Fun.protect f ~finally:(fun () ->
      let s_end = now_ns () in
      open_spans := List.tl !open_spans;
      spans := { s_name = name; s_parent = parent; s_start; s_end } :: !spans)

(* JSON output. Values keep every digit ([%.17g]); a non-finite value has
   no JSON form and means a broken measurement, so it is refused. *)
let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Poe_obs.Trace.escape_json b s;
  Buffer.contents b

let jnum v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg ("non-finite metric value " ^ string_of_float v)

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (jstr m.name)
             (jnum m.value) (jstr m.unit))
         ms)
  ^ "}"

let spans_json () =
  let t0 =
    List.fold_left (fun acc s -> min acc s.s_start) Int64.max_int !spans
  in
  let ns t = Int64.to_string (Int64.sub t t0) in
  "["
  ^ String.concat ",\n"
      (List.rev_map
         (fun s ->
           Printf.sprintf "{\"name\":%s,\"parent\":%s,\"start_ns\":%s,\"end_ns\":%s}"
             (jstr s.s_name) (jstr s.s_parent) (ns s.s_start) (ns s.s_end))
         !spans)
  ^ "]\n"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them (the
   default "exclusive" method), so the spreads printed here are the ones
   an outside check computes from the same values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quartiles: no values"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
