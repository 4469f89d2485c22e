module Json = Poe_obs.Json

type fig = {
  f_name : string;
  f_wall : float;
  f_alloc : float;
  f_counters : Json.t;
  f_budgets : Json.t;
}

type snapshot = {
  s_name : string;
  s_jobs : int;
  s_quick : bool;
  s_scale : float;
  s_clients : int option;
  s_figures : fig list;
  s_payloads : (string * string) list;
}

type fig_trend = {
  t_figure : string;
  t_wall : float;
  t_wall_prev : float option;
  t_wall_best : float option;
  t_delta_prev : float option;
  t_delta_best : float option;
}

type regression = { r_figure : string; r_kind : string; r_detail : string }

type report = {
  rp_dir : string;
  rp_current : string;
  rp_previous : string option;
  rp_snapshots : int;
  rp_wall_threshold : float;
  rp_figures : fig_trend list;
  rp_regressions : regression list;
}

let parse_fig (v : Json.t) : (fig, string) result =
  match Option.bind (Json.member "figure" v) Json.to_string with
  | None -> Error "figure entry without a name"
  | Some name -> (
      match Option.bind (Json.member "wall_s" v) Json.unstable_value with
      | None -> Error (Printf.sprintf "figure %s: missing wall_s" name)
      | Some wall ->
          let alloc =
            Option.value ~default:0.
              (Option.bind (Json.member "allocated_bytes" v) Json.to_float)
          in
          let obj k = Option.value ~default:(Json.Obj []) (Json.member k v) in
          Ok
            {
              f_name = name;
              f_wall = wall;
              f_alloc = alloc;
              f_counters = obj "counters";
              f_budgets = obj "budgets";
            })

let parse_wallclock ~name (s : string) : (snapshot, string) result =
  match Json.parse s with
  | Error e -> Error (Printf.sprintf "%s: BENCH_wallclock.json: %s" name e)
  | Ok v -> (
      match Option.bind (Json.member "schema" v) Json.to_string with
      | Some "poe-bench-wallclock-v1" -> (
          let int k = Option.bind (Json.member k v) Json.to_int in
          let figs =
            match Json.member "figures" v with Some (Json.Arr fs) -> fs | _ -> []
          in
          let rec collect acc = function
            | [] -> Ok (List.rev acc)
            | f :: rest -> (
                match parse_fig f with
                | Ok fg -> collect (fg :: acc) rest
                | Error e -> Error (Printf.sprintf "%s: %s" name e))
          in
          match collect [] figs with
          | Error e -> Error e
          | Ok figures ->
              Ok
                {
                  s_name = name;
                  s_jobs = Option.value ~default:1 (int "jobs");
                  s_quick =
                    (match Json.member "quick" v with
                    | Some (Json.Bool b) -> b
                    | _ -> false);
                  s_scale =
                    Option.value ~default:1.
                      (Option.bind (Json.member "scale" v) Json.to_float);
                  s_clients = int "clients";
                  s_figures = figures;
                  s_payloads = [];
                })
      | _ -> Error (Printf.sprintf "%s: BENCH_wallclock.json: unrecognized schema" name))

let load_snapshot ~dir ~name =
  let sub = Filename.concat dir name in
  match Json.read_file (Filename.concat sub "BENCH_wallclock.json") with
  | Error e -> Error (Printf.sprintf "%s: %s" name e)
  | Ok s -> (
      match parse_wallclock ~name s with
      | Error e -> Error e
      | Ok snap ->
          let payloads =
            Sys.readdir sub |> Array.to_list
            |> List.filter (fun f ->
                   String.length f > 6
                   && String.sub f 0 6 = "BENCH_"
                   && Filename.check_suffix f ".json"
                   && f <> "BENCH_wallclock.json" && f <> "BENCH_trend.json")
            |> List.sort compare
            |> List.filter_map (fun f ->
                   match Json.read_file (Filename.concat sub f) with
                   | Ok c -> Some (f, c)
                   | Error _ -> None)
          in
          Ok { snap with s_payloads = payloads })

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else
    let subs =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun d ->
             Sys.is_directory (Filename.concat dir d)
             && Sys.file_exists (Filename.concat (Filename.concat dir d) "BENCH_wallclock.json"))
      |> List.sort compare
    in
    if subs = [] then Error (Printf.sprintf "%s: no bench snapshots found" dir)
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
            match load_snapshot ~dir ~name with
            | Ok s -> go (s :: acc) rest
            | Error e -> Error e)
      in
      go [] subs

let same_config a b =
  a.s_quick = b.s_quick && a.s_scale = b.s_scale && a.s_clients = b.s_clients

let fig_in snap name = List.find_opt (fun f -> f.f_name = name) snap.s_figures

let rel_delta ~cur ~base = if base > 0. then Some ((cur -. base) /. base) else None

let analyze ?(wall_threshold = 0.10) ~dir snaps =
  match List.rev snaps with
  | [] -> Error "no snapshots"
  | cur :: older_rev ->
      let older = List.rev older_rev in
      let prev = match older_rev with [] -> None | p :: _ -> Some p in
      let regs = ref [] in
      let reg r_figure r_kind r_detail = regs := { r_figure; r_kind; r_detail } :: !regs in
      let figures =
        List.map
          (fun f ->
            let wall_prev =
              Option.bind prev (fun p ->
                  if p.s_jobs = cur.s_jobs then
                    Option.map (fun pf -> pf.f_wall) (fig_in p f.f_name)
                  else None)
            in
            let wall_best =
              List.filter_map
                (fun s ->
                  if s.s_jobs = cur.s_jobs && same_config s cur then
                    Option.map (fun sf -> sf.f_wall) (fig_in s f.f_name)
                  else None)
                older
              |> function
              | [] -> None
              | ws -> Some (List.fold_left Float.min Float.max_float ws)
            in
            let delta_prev =
              Option.bind wall_prev (fun p -> rel_delta ~cur:f.f_wall ~base:p)
            in
            let delta_best =
              Option.bind wall_best (fun b -> rel_delta ~cur:f.f_wall ~base:b)
            in
            (match (wall_prev, delta_prev) with
            | Some p, Some d when d > wall_threshold ->
                reg f.f_name "wall"
                  (Printf.sprintf "%.3fs -> %.3fs (+%.1f%%, threshold %.0f%%)" p
                     f.f_wall (100. *. d) (100. *. wall_threshold))
            | _ -> ());
            {
              t_figure = f.f_name;
              t_wall = f.f_wall;
              t_wall_prev = wall_prev;
              t_wall_best = wall_best;
              t_delta_prev = delta_prev;
              t_delta_best = delta_best;
            })
          cur.s_figures
      in
      (* Deterministic gates apply only against a configuration-identical
         previous snapshot: counters and figure payloads derive from
         simulated time, so any drift there is a behavior change. *)
      (match prev with
      | Some p when same_config p cur ->
          List.iter
            (fun f ->
              match fig_in p f.f_name with
              | None -> ()
              | Some pf -> (
                  (match
                     Metric_diff.diff_values
                       (Json.Obj [ ("counters", pf.f_counters); ("budgets", pf.f_budgets) ])
                       (Json.Obj [ ("counters", f.f_counters); ("budgets", f.f_budgets) ])
                   with
                  | Metric_diff.Identical _ -> ()
                  | Metric_diff.Diverged ms ->
                      let m = List.hd ms in
                      reg f.f_name "counters"
                        (Printf.sprintf "%s: %s -> %s (%d mismatch(es) total)"
                           m.Metric_diff.m_path m.Metric_diff.m_a m.Metric_diff.m_b
                           (List.length ms)));
                  if p.s_jobs = cur.s_jobs && pf.f_alloc > 0. then
                    let d = (f.f_alloc -. pf.f_alloc) /. pf.f_alloc in
                    if Float.abs d > 0.25 then
                      reg f.f_name "alloc"
                        (Printf.sprintf "%.0fB -> %.0fB (%+.1f%%)" pf.f_alloc
                           f.f_alloc (100. *. d))))
            cur.s_figures;
          List.iter
            (fun (file, pc) ->
              match List.assoc_opt file cur.s_payloads with
              | None -> reg file "payload" "figure payload present in previous snapshot only"
              | Some cc -> (
                  match Metric_diff.diff_strings pc cc with
                  | Error e -> reg file "payload" (Printf.sprintf "unreadable: %s" e)
                  | Ok (Metric_diff.Identical _) -> ()
                  | Ok (Metric_diff.Diverged ms) ->
                      let m = List.hd ms in
                      reg file "payload"
                        (Printf.sprintf "%s: %s -> %s (%d mismatch(es) total)"
                           m.Metric_diff.m_path m.Metric_diff.m_a m.Metric_diff.m_b
                           (List.length ms))))
            p.s_payloads
      | _ -> ());
      Ok
        {
          rp_dir = dir;
          rp_current = cur.s_name;
          rp_previous = Option.map (fun p -> p.s_name) prev;
          rp_snapshots = List.length snaps;
          rp_wall_threshold = wall_threshold;
          rp_figures = figures;
          rp_regressions = List.rev !regs;
        }

let regressed r = r.rp_regressions <> []
let exit_code r = if regressed r then 4 else 0

let pct = function
  | None -> "      -"
  | Some d -> Printf.sprintf "%+6.1f%%" (100. *. d)

let render_table r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "bench trend: %s (current: %s%s, %d snapshot%s)\n" r.rp_dir
       r.rp_current
       (match r.rp_previous with Some p -> ", previous: " ^ p | None -> "")
       r.rp_snapshots
       (if r.rp_snapshots = 1 then "" else "s"));
  Buffer.add_string b
    (Printf.sprintf "  %-10s %10s %10s %8s %8s\n" "figure" "wall_s" "prev_s"
       "vs prev" "vs best");
  List.iter
    (fun t ->
      Buffer.add_string b
        (Printf.sprintf "  %-10s %10.3f %10s %8s %8s\n" t.t_figure t.t_wall
           (match t.t_wall_prev with Some w -> Printf.sprintf "%.3f" w | None -> "-")
           (pct t.t_delta_prev) (pct t.t_delta_best)))
    r.rp_figures;
  (match r.rp_regressions with
  | [] -> Buffer.add_string b "no regressions\n"
  | regs ->
      Buffer.add_string b
        (Printf.sprintf "%d regression%s:\n" (List.length regs)
           (if List.length regs = 1 then "" else "s"));
      List.iter
        (fun g ->
          Buffer.add_string b
            (Printf.sprintf "  [%s] %s: %s\n" g.r_kind g.r_figure g.r_detail))
        regs);
  Buffer.contents b

let render_json r =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"poe-bench-trend-v1\",\"dir\":%s,\"current\":%s,\"previous\":%s,\"snapshots\":%d,\"wall_threshold\":%g,\"figures\":["
       (Json.quote r.rp_dir) (Json.quote r.rp_current)
       (match r.rp_previous with Some p -> Json.quote p | None -> "null")
       r.rp_snapshots r.rp_wall_threshold);
  Json.add_sep b
    (fun t ->
      let opt_f = function
        | Some f -> Printf.sprintf "%.9f" f
        | None -> "null"
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"figure\":%s,\"wall_s\":%.9f,\"wall_prev\":%s,\"wall_best\":%s,\"delta_prev\":%s,\"delta_best\":%s}"
           (Json.quote t.t_figure) t.t_wall (opt_f t.t_wall_prev)
           (opt_f t.t_wall_best)
           (opt_f t.t_delta_prev) (opt_f t.t_delta_best)))
    r.rp_figures;
  Buffer.add_string b "],\"regressions\":[";
  Json.add_sep b
    (fun g ->
      Buffer.add_string b
        (Printf.sprintf "{\"figure\":%s,\"kind\":%s,\"detail\":%s}"
           (Json.quote g.r_figure) (Json.quote g.r_kind) (Json.quote g.r_detail)))
    r.rp_regressions;
  Buffer.add_string b
    (Printf.sprintf "],\"regressed\":%b}\n" (regressed r));
  Buffer.contents b
