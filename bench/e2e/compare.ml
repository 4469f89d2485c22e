(* [e2e.exe compare A_DIR B_DIR]: for every workload x metric in the
   run.json files of two directories (A the parent, B the change), the
   medians and quartiles of each side, the fraction of pairs B wins (runs
   paired in file-name order), and a verdict by the rule of the
   choosing-metrics guide, section 8:

   - unresolved: the spread (quartile distance over the median) of either
     side is wider than the metric's bound, and not every B run beats
     every A run;
   - improved: B wins at least nine tenths of the pairs and the medians
     differ, in B's favour, by more than A's quartile distance;
   - regressed: B's median is worse than A's by more than the bound;
   - unchanged: anything else.

   Bounds come from BENCHMARK.json in the current directory; per-layer
   metrics have none, so they count as bound 0 (any change in a count
   shows). Exits 1 when a cell regressed. *)

module Json = Poe_analysis.Json

type decl = { higher_is_better : bool; bound : float }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let parse path =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let list_field name j =
  match Json.member name j with Some (Json.Arr l) -> l | _ -> []

let obj_field name j =
  match Json.member name j with Some (Json.Obj l) -> l | _ -> []

let str_field name j =
  match Option.bind (Json.member name j) Json.to_string with
  | Some s -> s
  | None -> failwith ("BENCHMARK.json: missing " ^ name)

let declarations path =
  let j = parse path in
  let decl ~with_bound m =
    ( str_field "name" m,
      {
        higher_is_better = String.equal (str_field "better" m) "higher";
        bound =
          (if with_bound then
             Option.value ~default:0.0 (Option.bind (Json.member "bound" m) Json.to_float)
           else 0.0);
      } )
  in
  List.map (decl ~with_bound:true) (list_field "end_to_end" j)
  @ List.map (decl ~with_bound:false) (list_field "per_layer" j)

(* (workload, metric) -> values, one per run.json in file-name order. *)
let load_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then failwith (dir ^ ": no run .json files");
  let cells = Hashtbl.create 64 in
  List.iter
    (fun f ->
      List.iter
        (fun (workload, result) ->
          List.iter
            (fun (metric, v) ->
              match Option.bind (Json.member "value" v) Json.to_float with
              | Some x ->
                  let key = (workload, metric) in
                  let prev = Option.value ~default:[] (Hashtbl.find_opt cells key) in
                  Hashtbl.replace cells key (x :: prev)
              | None -> ())
            (obj_field "metrics" result))
        (obj_field "workloads" (parse (Filename.concat dir f))))
    files;
  Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) cells [] |> List.sort compare

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

let verdict d a b =
  let qa1, ma, qa3 = Report.quartiles a and qb1, mb, qb3 = Report.quartiles b in
  (* Relative to A's median; a change from an exact zero is infinite. *)
  let rel x = if x = 0.0 then 0.0 else if ma = 0.0 then infinity else x /. Float.abs ma in
  let beats x y = if d.higher_is_better then x > y else x < y in
  let n = min (List.length a) (List.length b) in
  let wins =
    List.length (List.filter (fun (x, y) -> beats y x) (List.combine (take n a) (take n b)))
  in
  let win_frac = float_of_int wins /. float_of_int n in
  let spread = Float.max (rel (qa3 -. qa1)) (rel (qb3 -. qb1)) in
  let every_b_beats_every_a = List.for_all (fun y -> List.for_all (beats y) a) b in
  let worse_by = rel (if d.higher_is_better then ma -. mb else mb -. ma) in
  let v =
    if spread > d.bound && not every_b_beats_every_a then "unresolved"
    else if win_frac >= 0.9 && beats mb ma && Float.abs (mb -. ma) > qa3 -. qa1 then
      "improved"
    else if worse_by > d.bound then "regressed"
    else "unchanged"
  in
  ((qa1, ma, qa3), (qb1, mb, qb3), win_frac, v)

let main = function
  | [ dir_a; dir_b ] ->
      let decls = declarations "BENCHMARK.json" in
      let a = load_dir dir_a and b = load_dir dir_b in
      Printf.printf "%-16s %-34s %-40s %-40s %6s  %s\n" "workload" "metric"
        "A median [q1, q3]" "B median [q1, q3]" "B wins" "verdict";
      let regressed = ref false in
      List.iter
        (fun (((workload, metric) as key), va) ->
          match (List.assoc_opt metric decls, List.assoc_opt key b) with
          | Some d, Some vb ->
              let (a1, am, a3), (b1, bm, b3), wins, v = verdict d va vb in
              if String.equal v "regressed" then regressed := true;
              Printf.printf "%-16s %-34s %-40s %-40s %6.2f  %s\n" workload metric
                (Printf.sprintf "%.6g [%.6g, %.6g]" am a1 a3)
                (Printf.sprintf "%.6g [%.6g, %.6g]" bm b1 b3)
                wins v
          | None, _ -> Printf.printf "%-16s %-34s not declared in BENCHMARK.json\n" workload metric
          | _, None -> Printf.printf "%-16s %-34s missing from %s\n" workload metric dir_b)
        a;
      if !regressed then 1 else 0
  | _ ->
      prerr_endline "usage: e2e.exe compare A_DIR B_DIR";
      2
