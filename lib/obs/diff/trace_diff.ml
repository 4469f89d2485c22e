module Trace = Poe_obs.Trace
module Json = Poe_obs.Json
module Slot_life = Poe_analysis.Slot_life
module Trace_reader = Poe_analysis.Trace_reader

type side = A | B

let side_name = function A -> "a" | B -> "b"

type divergence = {
  d_index : int;
  d_ts : float;
  d_node : int;
  d_seqno : int;
  d_phase : string;
  d_field : string;
  d_a : string;
  d_b : string;
  d_context_a : string list;
  d_context_b : string list;
}

type outcome =
  | Identical of int
  | Diverged of divergence
  | Incomparable_prefix of { side : side; detail : string }
  | Incompatible of string

(* ------------------------------------------------------------------ *)
(* Rendering single events as the exporters' JSONL lines (newline
   stripped), so context dumps read exactly like the trace files.      *)

let line_of_event ev =
  let buf = Buffer.create 128 in
  Trace.export_jsonl_events [ ev ] buf;
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s

let window_lines events ~center ~window =
  let arr = Array.of_list events in
  let lo = max 0 (center - window) in
  let hi = min (Array.length arr - 1) (center + window) in
  if lo > hi then []
  else
    List.init
      (hi - lo + 1)
      (fun i ->
        let idx = lo + i in
        Printf.sprintf "%s[%d] %s"
          (if idx = center then ">" else " ")
          idx
          (line_of_event arr.(idx)))

(* ------------------------------------------------------------------ *)
(* Field-by-field comparison of one aligned event pair                 *)

let arg_repr = function
  | Trace.I i -> string_of_int i
  | Trace.F f -> Printf.sprintf "%.9f" f
  | Trace.S s -> Json.quote s

let ph_repr = function
  | Trace.Span_begin -> "B"
  | Trace.Span_end -> "E"
  | Trace.Instant -> "i"
  | Trace.Complete d -> Printf.sprintf "X(dur=%.9f)" d

(* First differing field of two events, with rendered values; [None]
   when the events are identical. Argument lists compare pairwise in
   order (exports preserve order, so order is part of identity). *)
let first_field_diff (a : Trace.event) (b : Trace.event) =
  if compare a.Trace.ts b.Trace.ts <> 0 then
    Some ("ts", Printf.sprintf "%.9f" a.Trace.ts, Printf.sprintf "%.9f" b.Trace.ts)
  else if a.Trace.node <> b.Trace.node then
    Some ("node", string_of_int a.Trace.node, string_of_int b.Trace.node)
  else if a.Trace.tid <> b.Trace.tid then
    Some ("tid", string_of_int a.Trace.tid, string_of_int b.Trace.tid)
  else if not (String.equal a.Trace.cat b.Trace.cat) then
    Some ("cat", a.Trace.cat, b.Trace.cat)
  else if not (String.equal a.Trace.name b.Trace.name) then
    Some ("name", a.Trace.name, b.Trace.name)
  else if compare a.Trace.ph b.Trace.ph <> 0 then
    Some ("ph", ph_repr a.Trace.ph, ph_repr b.Trace.ph)
  else if a.Trace.view <> b.Trace.view then
    Some ("view", string_of_int a.Trace.view, string_of_int b.Trace.view)
  else if a.Trace.seqno <> b.Trace.seqno then
    Some ("seqno", string_of_int a.Trace.seqno, string_of_int b.Trace.seqno)
  else
    let rec args xs ys =
      match (xs, ys) with
      | [], [] -> None
      | (k, v) :: xs', (k', v') :: ys' ->
          if not (String.equal k k') then Some ("args", k, k')
          else if compare v v' <> 0 then
            Some ("args." ^ k, arg_repr v, arg_repr v')
          else args xs' ys'
      | _ ->
          Some
            ( "args",
              Printf.sprintf "%d arg(s)" (List.length a.Trace.args),
              Printf.sprintf "%d arg(s)" (List.length b.Trace.args) )
    in
    args a.Trace.args b.Trace.args

(* ------------------------------------------------------------------ *)
(* Slot-phase tracking: as the walk advances, remember which phase each
   (node, seqno) slot is in, so a divergence mid-slot is reported in
   lifecycle terms rather than as a bare event offset.                 *)

let phase_of (phases : (int * int, string) Hashtbl.t) (ev : Trace.event) =
  match ev.Trace.ph with
  | Trace.Span_begin
    when ev.Trace.seqno >= 0 && not (String.equal ev.Trace.name "slot") ->
      ev.Trace.name
  | _ -> (
      match Hashtbl.find_opt phases (ev.Trace.node, ev.Trace.seqno) with
      | Some p -> p
      | None -> ev.Trace.name)

let advance_phase phases (ev : Trace.event) =
  if ev.Trace.seqno >= 0 then
    let key = (ev.Trace.node, ev.Trace.seqno) in
    match ev.Trace.ph with
    | Trace.Span_begin when not (String.equal ev.Trace.name "slot") ->
        Hashtbl.replace phases key ev.Trace.name
    | Trace.Span_end when String.equal ev.Trace.name "slot" ->
        Hashtbl.remove phases key
    | Trace.Span_end -> (
        match Hashtbl.find_opt phases key with
        | Some p when String.equal p ev.Trace.name -> Hashtbl.remove phases key
        | _ -> ())
    | _ -> ()

(* ------------------------------------------------------------------ *)

let truncated_slots life =
  List.filter (fun (s : Slot_life.slot) -> s.Slot_life.truncated)
    life.Slot_life.slots

let protocols_of life =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (s : Slot_life.slot) ->
         if String.equal s.Slot_life.protocol "" then None
         else Some s.Slot_life.protocol)
       life.Slot_life.slots)

let diff_events ?(window = 3) ~a ~b () =
  let len_a = List.length a and len_b = List.length b in
  if len_a = 0 && len_b = 0 then Identical 0
  else if len_a = 0 || len_b = 0 then
    Incompatible
      (Printf.sprintf "empty trace on side %s (%d vs %d events)"
         (if len_a = 0 then "a" else "b")
         len_a len_b)
  else
    let life_a = Slot_life.reconstruct a in
    let life_b = Slot_life.reconstruct b in
    let protos_a = protocols_of life_a and protos_b = protocols_of life_b in
    let share_protocol =
      protos_a = [] || protos_b = []
      || List.exists (fun p -> List.mem p protos_b) protos_a
    in
    if not share_protocol then
      Incompatible
        (Printf.sprintf "protocol mismatch (a: %s; b: %s)"
           (String.concat "," protos_a)
           (String.concat "," protos_b))
    else
      let trunc_a = truncated_slots life_a
      and trunc_b = truncated_slots life_b in
      let incomparable side n_slots other =
        Incomparable_prefix
          {
            side;
            detail =
              Printf.sprintf
                "ring evicted the opening edge of %d slot(s) on side %s%s; \
                 event streams cannot be index-aligned"
                n_slots (side_name side) other;
          }
      in
      match (trunc_a, trunc_b) with
      | _ :: _, [] -> incomparable A (List.length trunc_a) " only"
      | [], _ :: _ -> incomparable B (List.length trunc_b) " only"
      | both_a, both_b -> (
          (* Neither side truncated: a clean index-aligned walk. Both
             sides truncated: walk anyway, but a mismatch proves nothing
             (the rings may have evicted different prefixes), so report
             it as incomparable rather than as a divergence. *)
          let phases = Hashtbl.create 64 in
          let arr_a = Array.of_list a and arr_b = Array.of_list b in
          let n = min len_a len_b in
          let rec walk i =
            if i >= n then None
            else
              let ea = arr_a.(i) and eb = arr_b.(i) in
              match first_field_diff ea eb with
              | None ->
                  advance_phase phases ea;
                  walk (i + 1)
              | Some (field, va, vb) ->
                  Some
                    {
                      d_index = i;
                      d_ts = ea.Trace.ts;
                      d_node = ea.Trace.node;
                      d_seqno = ea.Trace.seqno;
                      d_phase = phase_of phases ea;
                      d_field = field;
                      d_a = va;
                      d_b = vb;
                      d_context_a = window_lines a ~center:i ~window;
                      d_context_b = window_lines b ~center:i ~window;
                    }
          in
          let div =
            match walk 0 with
            | Some d -> Some d
            | None ->
                if len_a = len_b then None
                else
                  (* Common prefix identical, one side kept going. *)
                  let longer, ev =
                    if len_a > len_b then (a, arr_a.(n)) else (b, arr_b.(n))
                  in
                  let short_repr =
                    Printf.sprintf "end of trace (%d events)" n
                  in
                  let long_repr =
                    Printf.sprintf "%d more event(s), next: %s"
                      (max len_a len_b - n)
                      (line_of_event ev)
                  in
                  Some
                    {
                      d_index = n;
                      d_ts = ev.Trace.ts;
                      d_node = ev.Trace.node;
                      d_seqno = ev.Trace.seqno;
                      d_phase = phase_of phases ev;
                      d_field = "event-count";
                      d_a = (if len_a > len_b then long_repr else short_repr);
                      d_b = (if len_a > len_b then short_repr else long_repr);
                      d_context_a =
                        (if len_a > len_b then
                           window_lines longer ~center:n ~window
                         else window_lines a ~center:(n - 1) ~window);
                      d_context_b =
                        (if len_a > len_b then
                           window_lines b ~center:(n - 1) ~window
                         else window_lines longer ~center:n ~window);
                    }
          in
          match (div, both_a) with
          | None, _ -> Identical len_a
          | Some d, [] when both_b = [] -> Diverged d
          | Some d, _ ->
              Incomparable_prefix
                {
                  side = (if both_a <> [] then A else B);
                  detail =
                    Printf.sprintf
                      "both sides ring-evicted (%d / %d truncated slot(s)); \
                       streams differ from event %d but alignment is not \
                       trustworthy"
                      (List.length both_a) (List.length both_b) d.d_index;
                })

let diff_files ?window path_a path_b =
  match (Trace_reader.load_file path_a, Trace_reader.load_file path_b) with
  | Error e, _ | _, Error e -> Error e
  | Ok a, Ok b ->
      (* An empty parse of a nonempty file is already reported as an
         error by the reader; an empty file parses to []. *)
      Ok (diff_events ?window ~a ~b ())

let exit_code = function
  | Identical _ -> 0
  | Diverged _ | Incomparable_prefix _ -> 4
  | Incompatible _ -> 1

let render ?(label_a = "a") ?(label_b = "b") outcome =
  let b = Buffer.create 512 in
  (match outcome with
  | Identical n ->
      Printf.bprintf b "traces identical (%d events compared)\n" n
  | Incomparable_prefix { side; detail } ->
      Printf.bprintf b "incomparable-prefix (side %s = %s): %s\n"
        (side_name side)
        (match side with A -> label_a | B -> label_b)
        detail
  | Incompatible detail -> Printf.bprintf b "incompatible traces: %s\n" detail
  | Diverged d ->
      Printf.bprintf b
        "first divergence at event %d (t=%.9fs): node %d seqno %d phase %s \
         field %s\n"
        d.d_index d.d_ts d.d_node d.d_seqno d.d_phase d.d_field;
      Printf.bprintf b "  %s: %s\n" label_a d.d_a;
      Printf.bprintf b "  %s: %s\n" label_b d.d_b;
      Printf.bprintf b "context (%s):\n" label_a;
      List.iter (fun l -> Printf.bprintf b "  %s\n" l) d.d_context_a;
      Printf.bprintf b "context (%s):\n" label_b;
      List.iter (fun l -> Printf.bprintf b "  %s\n" l) d.d_context_b);
  Buffer.contents b

let to_json outcome =
  let b = Buffer.create 512 in
  (match outcome with
  | Identical n ->
      Printf.bprintf b "{\"schema\":\"poe-trace-diff-v1\",\"outcome\":\"identical\",\"events\":%d}" n
  | Incomparable_prefix { side; detail } ->
      Printf.bprintf b
        "{\"schema\":\"poe-trace-diff-v1\",\"outcome\":\"incomparable-prefix\",\"side\":%s,\"detail\":%s}"
        (Json.quote (side_name side)) (Json.quote detail)
  | Incompatible detail ->
      Printf.bprintf b "{\"schema\":\"poe-trace-diff-v1\",\"outcome\":\"incompatible\",\"detail\":%s}"
        (Json.quote detail)
  | Diverged d ->
      Printf.bprintf b
        "{\"schema\":\"poe-trace-diff-v1\",\"outcome\":\"diverged\",\"index\":%d,\"ts\":%.9f,\"node\":%d,\
         \"seqno\":%d,\"phase\":%s,\"field\":%s,\"a\":%s,\"b\":%s,\
         \"context_a\":["
        d.d_index d.d_ts d.d_node d.d_seqno (Json.quote d.d_phase)
        (Json.quote d.d_field) (Json.quote d.d_a) (Json.quote d.d_b);
      Json.add_sep b (Json.escape b) d.d_context_a;
      Buffer.add_string b "],\"context_b\":[";
      Json.add_sep b (Json.escape b) d.d_context_b;
      Buffer.add_string b "]}");
  Buffer.add_char b '\n';
  Buffer.contents b
