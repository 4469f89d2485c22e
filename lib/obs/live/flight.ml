module Trace = Poe_obs.Trace
module Json = Poe_obs.Json
module Prof = Poe_prof.Prof

let trace_window = 4096

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let last_n n lst =
  let len = List.length lst in
  if len <= n then lst
  else
    let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
    drop (len - n) lst

let dump ~dir ~reason ~at ?wall ?(meta = []) ~events ~heartbeats ~state () =
  let wall = match wall with Some w -> w | None -> Unix.gettimeofday () in
  mkdir_p dir;
  let files = ref [] in
  let emit name contents =
    (match Json.write_file (Filename.concat dir name) contents with
    | Ok () -> ()
    | Error e -> raise (Sys_error e));
    files := name :: !files
  in
  let windowed = last_n trace_window events in
  let trace_buf = Buffer.create 4096 in
  Trace.export_jsonl_events windowed trace_buf;
  emit "trace.jsonl" (Buffer.contents trace_buf);
  emit "heartbeats.jsonl" heartbeats;
  emit "profile.json" (Prof.render_json (Prof.snapshot ()));
  emit "state.txt" state;
  (* Manifest last, so its file list is complete. *)
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"reason\":";
  Json.escape buf reason;
  Printf.bprintf buf ",\"at\":%.9f" at;
  Printf.bprintf buf ",\"trace_events\":%d,\"trace_window\":%d"
    (List.length windowed) trace_window;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      Json.escape buf k;
      Buffer.add_char buf ':';
      Json.escape buf v)
    meta;
  Buffer.add_string buf ",\"files\":[";
  Json.add_sep buf (Json.escape buf) (List.rev ("manifest.json" :: !files));
  Buffer.add_char buf ']';
  Printf.bprintf buf ",\"wall\":%s" (Json.unstable wall);
  Buffer.add_string buf "}\n";
  emit "manifest.json" (Buffer.contents buf);
  List.rev !files
