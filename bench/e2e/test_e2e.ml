(* Self-test of the end-to-end benchmark: every workload on a short
   horizon, run twice in each mode (end-to-end and per-layer). It checks
   that

   - every run passes its correctness checks (exit code 0);
   - every deterministic metric reads the same in both runs;
   - every printed metric name is declared in BENCHMARK.json, under the
     list its mode reports, and every declared name is printed;
   - every workload and metric name matches [A-Za-z0-9_.-]+. *)

module Json = Poe_analysis.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let parse path =
  match Json.parse (read_file path) with Ok j -> j | Error e -> fail "%s: %s" path e

let names list j =
  match Json.member list j with
  | Some (Json.Arr l) ->
      List.filter_map (fun m -> Option.bind (Json.member "name" m) Json.to_string) l
  | _ -> fail "BENCHMARK.json has no %s list" list

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* Metrics that measure the host (time, memory, GC) rather than the
   simulation; all others are a pure function of the seed. *)
let host_dependent name =
  List.mem name
    [ "setup_s"; "run_s"; "peak_rss_mb"; "engine.events_per_s"; "obs.trace_overhead";
      "unexplained_share" ]
  || String.ends_with ~suffix:".est_share" name
  || String.starts_with ~prefix:"micro." name
  || String.starts_with ~prefix:"gc." name

(* Every workload at 2% of its horizon (the failover run then ends before
   its crash), except where the first replies come later: 120 ms into
   poe-n16 and about 1.1 s into poe-n4-160k, whose primary first takes
   in 160k requests. *)
let scales =
  [ ("poe-n16", 0.08); ("pbft-n32-zero", 0.02); ("poe-n4-160k", 0.22);
    ("poe-n4-failover", 0.02) ]

let lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

(* Two runs of one workload, side by side; for each, the printed metric
   names and the values of the final JSON line. *)
let run_twice ~trace (w, scale) =
  let start () =
    let out = Filename.temp_dir "poe-e2e-test" "" in
    let args =
      [| "./e2e.exe"; "--workload"; w; "--seed"; "1"; "--seconds"; "0"; "--scale";
         string_of_float scale; "--trace"; string_of_int trace; "--out"; out |]
    in
    (out, Unix.open_process_args_in "./e2e.exe" args)
  in
  let finish (out, ic) =
    let output = lines ic in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> fail "%s --trace %d failed its checks" w trace);
    Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
    Sys.rmdir out;
    let printed =
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ w'; m; _; _ ] when String.equal w w' -> Some m
          | _ -> None)
        output
    in
    let values =
      match Json.parse (List.nth output (List.length output - 1)) with
      | Ok result -> (
          match Json.member "metrics" result with
          | Some (Json.Obj ms) ->
              List.map (fun (m, v) -> (m, Option.bind (Json.member "value" v) Json.to_float)) ms
          | _ -> fail "%s: result has no metrics" w)
      | Error e -> fail "%s: last line is not JSON: %s" w e
    in
    (printed, values)
  in
  let a = start () in
  let b = start () in
  let a = finish a in
  (a, finish b)

let check_mode ~trace ~declared =
  List.iter
    (fun ((w, _) as ws) ->
      let (printed, first), (_, second) = run_twice ~trace ws in
      List.iter
        (fun m ->
          if not (valid_name w && valid_name m) then fail "bad name %S %S" w m;
          if not (List.mem m declared) then fail "%s prints undeclared metric %s" w m)
        printed;
      List.iter
        (fun m -> if not (List.mem m printed) then fail "%s does not print %s" w m)
        declared;
      List.iter
        (fun (m, v) ->
          if not (host_dependent m) && List.assoc_opt m second <> Some v then
            fail "%s %s differs between two runs of the same seed" w m)
        first)
    scales

let () =
  let bench = parse "../../BENCHMARK.json" in
  let end_to_end = names "end_to_end" bench and per_layer = names "per_layer" bench in
  List.iter (fun n -> if not (valid_name n) then fail "bad declared name %S" n)
    (end_to_end @ per_layer);
  check_mode ~trace:0 ~declared:end_to_end;
  check_mode ~trace:1 ~declared:per_layer;
  print_endline "e2e self-test: ok"
