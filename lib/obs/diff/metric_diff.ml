module Json = Poe_obs.Json

type policy = Exact | Relative of float | Ignore

(* Allocation totals are deterministic for a fixed build but shift with
   the domain-pool job count and compiler version; everything else in a
   metric artifact is an event count derived from simulated time and
   must not move at all. *)
let default_policies =
  [
    ("allocated_bytes", Relative 0.25);
    ("alloc_bytes", Relative 0.25);
    ("self_alloc_bytes", Relative 0.25);
    ("promoted_words", Relative 0.5);
  ]

type mismatch = { m_path : string; m_kind : string; m_a : string; m_b : string }
type outcome = Identical of int | Diverged of mismatch list

let max_mismatches = 100

let rec render_value = function
  | Json.Null -> "null"
  | Json.Bool b -> if b then "true" else "false"
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%g" f
  | Json.Str s -> Printf.sprintf "%S" s
  | Json.Arr xs ->
      "[" ^ String.concat "," (List.map render_value xs) ^ "]"
  | Json.Obj fields ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (render_value v)) fields)
      ^ "}"

let leaf_segment path =
  match String.rindex_opt path '.' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let policy_for policies path =
  match List.assoc_opt (leaf_segment path) policies with
  | Some p -> p
  | None -> Exact

let as_number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

type walk_state = { mutable leaves : int; mutable mismatches : mismatch list; mutable count : int }

let add st path kind a b =
  if st.count < max_mismatches then
    st.mismatches <- { m_path = path; m_kind = kind; m_a = a; m_b = b } :: st.mismatches;
  st.count <- st.count + 1

let join path key = if path = "" then key else path ^ "." ^ key

let rec walk policies st path (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Json.Obj xs, Json.Obj ys ->
      List.iter
        (fun (k, av) ->
          match List.assoc_opt k ys with
          | Some bv -> walk policies st (join path k) av bv
          | None ->
              if policy_for policies (join path k) <> Ignore then
                add st (join path k) "missing-b" (render_value av) "absent")
        xs;
      List.iter
        (fun (k, bv) ->
          if not (List.mem_assoc k xs) then
            if policy_for policies (join path k) <> Ignore then
              add st (join path k) "missing-a" "absent" (render_value bv))
        ys
  | Json.Arr xs, Json.Arr ys ->
      let nx = List.length xs and ny = List.length ys in
      if nx <> ny then
        add st path "length" (string_of_int nx ^ " elements") (string_of_int ny ^ " elements");
      List.iteri
        (fun i (av, bv) -> walk policies st (join path (string_of_int i)) av bv)
        (List.combine
           (if nx <= ny then xs else List.filteri (fun i _ -> i < ny) xs)
           (if ny <= nx then ys else List.filteri (fun i _ -> i < nx) ys))
  | _ -> (
      st.leaves <- st.leaves + 1;
      match policy_for policies path with
      | Ignore -> ()
      | Exact -> (
          (* Int 3 and Float 3. render identically in our exporters, so
             numeric equality is the right notion of "exact". *)
          match (as_number a, as_number b) with
          | Some fa, Some fb -> if fa <> fb then add st path "value" (render_value a) (render_value b)
          | _ -> if a <> b then add st path "value" (render_value a) (render_value b))
      | Relative t -> (
          match (as_number a, as_number b) with
          | Some fa, Some fb ->
              let denom = Float.max (Float.abs fa) (Float.abs fb) in
              if denom > 0. && Float.abs (fa -. fb) > (t *. denom) then
                add st path
                  (Printf.sprintf "relative(>%g)" t)
                  (render_value a) (render_value b)
          | _ -> if a <> b then add st path "value" (render_value a) (render_value b)))

let finish st =
  if st.count = 0 then Identical st.leaves else Diverged (List.rev st.mismatches)

let diff_values ?(policies = []) a b =
  let policies = policies @ default_policies in
  let st = { leaves = 0; mismatches = []; count = 0 } in
  walk policies st "" (Json.strip_unstable a) (Json.strip_unstable b);
  finish st

(* [poe_sim profile] budgets tables:
     replies_completed 98597
     consensus.slot_started 98612 1.000152
   i.e. a header pair then [name total per_reply] rows. *)
let parse_budgets s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let fields_of l = String.split_on_char ' ' l |> List.filter (fun f -> f <> "") in
  let parse_line l =
    match fields_of l with
    | [ name; total ] -> (
        match int_of_string_opt total with
        | Some n -> Ok (name, Json.Int n)
        | None -> Error (Printf.sprintf "budgets: bad count in %S" l))
    | [ name; total; per_reply ] -> (
        match (int_of_string_opt total, float_of_string_opt per_reply) with
        | Some n, Some f ->
            Ok (name, Json.Obj [ ("total", Json.Int n); ("per_reply", Json.Float f) ])
        | _ -> Error (Printf.sprintf "budgets: bad row %S" l))
    | _ -> Error (Printf.sprintf "budgets: unrecognized line %S" l)
  in
  if lines = [] then Error "budgets: empty input"
  else
    let rec go acc = function
      | [] -> Ok (Json.Obj (List.rev acc))
      | l :: rest -> (
          match parse_line l with
          | Ok kv -> go (kv :: acc) rest
          | Error e -> Error e)
    in
    go [] lines

(* Format sniffing: JSON-looking content is either one document or one
   document per line (heartbeat streams); anything else is tried as a
   budgets table. Unparseable JSONL lines are skipped, matching
   Trace_reader — a stream where nothing parses is an error. *)
let parse_artifact (s : string) : (Json.t, string) result =
  let trimmed = String.trim s in
  if trimmed = "" then Error "empty input"
  else if trimmed.[0] = '{' || trimmed.[0] = '[' then
    let lines =
      String.split_on_char '\n' trimmed
      |> List.map String.trim
      |> List.filter (fun l -> l <> "")
    in
    match lines with
    | [ _one ] -> Json.parse trimmed
    | _ -> (
        match Json.parse trimmed with
        | Ok v -> Ok v
        | Error _ -> (
            let docs =
              List.filter_map (fun l -> Result.to_option (Json.parse l)) lines
            in
            match docs with
            | [] -> Error "no line parsed as JSON"
            | docs -> Ok (Json.Arr docs)))
  else parse_budgets s

let diff_strings ?policies sa sb =
  match (parse_artifact sa, parse_artifact sb) with
  | Ok a, Ok b -> Ok (diff_values ?policies a b)
  | Error e, _ -> Error (Printf.sprintf "side A: %s" e)
  | _, Error e -> Error (Printf.sprintf "side B: %s" e)

let diff_files ?policies pa pb =
  match (Json.read_file pa, Json.read_file pb) with
  | Ok sa, Ok sb -> diff_strings ?policies sa sb
  | Error e, _ | _, Error e -> Error e

let exit_code = function Identical _ -> 0 | Diverged _ -> 4

let render ?(label_a = "A") ?(label_b = "B") outcome =
  let b = Buffer.create 256 in
  (match outcome with
  | Identical n ->
      Buffer.add_string b (Printf.sprintf "identical: %d leaves compared\n" n)
  | Diverged ms ->
      Buffer.add_string b
        (Printf.sprintf "diverged: %d mismatch%s\n" (List.length ms)
           (if List.length ms = 1 then "" else "es"));
      List.iter
        (fun m ->
          Buffer.add_string b
            (Printf.sprintf "  %s [%s]\n    %s: %s\n    %s: %s\n" m.m_path m.m_kind
               label_a m.m_a label_b m.m_b))
        ms);
  Buffer.contents b

let to_json outcome =
  match outcome with
  | Identical n ->
      Printf.sprintf "{\"schema\":\"poe-metric-diff-v1\",\"outcome\":\"identical\",\"leaves\":%d}" n
  | Diverged ms ->
      let m_json m =
        Printf.sprintf "{\"path\":%s,\"kind\":%s,\"a\":%s,\"b\":%s}"
          (Json.quote m.m_path) (Json.quote m.m_kind) (Json.quote m.m_a)
          (Json.quote m.m_b)
      in
      Printf.sprintf
        "{\"schema\":\"poe-metric-diff-v1\",\"outcome\":\"diverged\",\"mismatches\":[%s]}"
        (String.concat "," (List.map m_json ms))
