module Trace = Poe_obs.Trace
module Json = Poe_obs.Json

let arg_of_json = function
  | Json.Int i -> Some (Trace.I i)
  | Json.Float f -> Some (Trace.F f)
  | Json.Str s -> Some (Trace.S s)
  | _ -> None

let event_of_json j =
  let open Json in
  let int_field ?(default = None) k =
    match member k j with
    | Some v -> to_int v
    | None -> default
  in
  match (member "ts" j, int_field "node", member "name" j, member "ph" j) with
  | Some ts_j, Some node, Some (Str name), Some (Str ph_code) ->
      let ts = Option.value (to_float ts_j) ~default:0.0 in
      let cat =
        match member "cat" j with Some (Str c) -> c | _ -> ""
      in
      let tid = Option.value (int_field "tid") ~default:0 in
      let view = Option.value (int_field "view") ~default:(-1) in
      let seqno = Option.value (int_field "seqno") ~default:(-1) in
      let ph =
        match ph_code with
        | "B" -> Some Trace.Span_begin
        | "E" -> Some Trace.Span_end
        | "i" -> Some Trace.Instant
        | "X" ->
            let dur =
              match member "dur" j with
              | Some d -> Option.value (to_float d) ~default:0.0
              | None -> 0.0
            in
            Some (Trace.Complete dur)
        | _ -> None
      in
      let args =
        match member "args" j with
        | Some (Obj fields) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun a -> (k, a)) (arg_of_json v))
              fields
        | _ -> []
      in
      Option.map
        (fun ph -> { Trace.ts; node; tid; cat; name; ph; view; seqno; args })
        ph
  | _ -> None

let events_of_jsonl content =
  let lines = String.split_on_char '\n' content in
  let events = ref [] in
  let errors = ref 0 in
  List.iteri
    (fun lineno line ->
      if String.trim line <> "" then
        match Json.parse line with
        | Ok j -> (
            match event_of_json j with
            | Some ev -> events := ev :: !events
            | None -> incr errors)
        | Error msg ->
            incr errors;
            if !errors = 1 then
              Printf.eprintf "trace line %d: %s\n%!" (lineno + 1) msg)
    lines;
  if !events = [] && !errors > 0 then
    Error
      (Printf.sprintf "no parseable trace events (%d bad lines); is this a \
                       jsonl trace (not chrome format)?"
         !errors)
  else Ok (List.rev !events)

let load_file path =
  Result.bind (Json.read_file path) (fun content ->
      Result.map_error (Printf.sprintf "%s: %s" path) (events_of_jsonl content))

let int_arg name ev =
  match List.assoc_opt name ev.Trace.args with
  | Some (Trace.I i) -> Some i
  | _ -> None

let float_arg name ev =
  match List.assoc_opt name ev.Trace.args with
  | Some (Trace.F f) -> Some f
  | Some (Trace.I i) -> Some (float_of_int i)
  | _ -> None

let str_arg name ev =
  match List.assoc_opt name ev.Trace.args with
  | Some (Trace.S s) -> Some s
  | _ -> None
