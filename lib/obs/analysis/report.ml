module Trace = Poe_obs.Trace
module Json = Poe_obs.Json

(* All rendering is Printf into a Buffer with fixed-precision floats, so
   the same analysis input always produces byte-identical output — the
   reports are diffable artifacts, same-seed runs must match exactly. *)

let fsec = Printf.sprintf "%.6f"

(* ------------------------------------------------------------------ *)
(* Phase breakdown: text                                               *)

let add_breakdown buf (b : Attribution.breakdown) =
  let p = Printf.bprintf in
  p buf "protocol %s: %d slots (%d committed, %d rolled_back, %d abandoned, \
         %d in_flight, %d truncated)\n"
    b.protocol b.slots_seen b.committed b.rolled_back b.abandoned b.in_flight
    b.truncated;
  List.iter
    (fun (ps : Attribution.phase_stats) ->
      p buf
        "  phase %-10s count=%-6d p50=%ss p95=%ss p99=%ss mean=%ss share=%.1f%%\n"
        ps.phase ps.count (fsec ps.p50) (fsec ps.p95) (fsec ps.p99)
        (fsec ps.mean)
        (100.0 *. ps.share))
    b.phases;
  if b.slot_count > 0 then
    p buf "  slot (propose->executed): count=%d p50=%ss p95=%ss p99=%ss\n"
      b.slot_count (fsec b.slot_p50) (fsec b.slot_p95) (fsec b.slot_p99);
  if b.e2e_count > 0 then
    p buf "  client e2e (submit->reply): count=%d p50=%ss p95=%ss p99=%ss\n"
      b.e2e_count (fsec b.e2e_p50) (fsec b.e2e_p95) (fsec b.e2e_p99)

let breakdowns_to_string bs =
  let buf = Buffer.create 1024 in
  List.iter (add_breakdown buf) bs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Phase breakdown: JSON                                               *)

let add_phase_json buf (ps : Attribution.phase_stats) =
  Printf.bprintf buf
    "{\"phase\":%s,\"count\":%d,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\
     \"max\":%s,\"share\":%s}"
    (Json.quote ps.phase) ps.count (fsec ps.mean) (fsec ps.p50) (fsec ps.p95)
    (fsec ps.p99) (fsec ps.max) (fsec ps.share)

let add_breakdown_json buf (b : Attribution.breakdown) =
  Printf.bprintf buf
    "{\"protocol\":%s,\"slots_seen\":%d,\"committed\":%d,\"rolled_back\":%d,\
     \"abandoned\":%d,\"in_flight\":%d,\"truncated\":%d,\"phases\":["
    (Json.quote b.protocol) b.slots_seen b.committed b.rolled_back b.abandoned
    b.in_flight b.truncated;
  Json.add_sep buf (add_phase_json buf) b.phases;
  Printf.bprintf buf
    "],\"slot\":{\"count\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s},\"e2e\":{\
     \"count\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s}}"
    b.slot_count (fsec b.slot_p50) (fsec b.slot_p95) (fsec b.slot_p99)
    b.e2e_count (fsec b.e2e_p50) (fsec b.e2e_p95) (fsec b.e2e_p99)

let add_breakdowns_json buf bs =
  Buffer.add_string buf "{\"protocols\":[";
  Json.add_sep buf (add_breakdown_json buf) bs;
  Buffer.add_string buf "]}\n"

let breakdowns_json bs =
  let buf = Buffer.create 1024 in
  add_breakdowns_json buf bs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Forensic report                                                     *)

let add_arg buf (k, v) =
  Printf.bprintf buf " %s=" k;
  match v with
  | Trace.I i -> Printf.bprintf buf "%d" i
  | Trace.F f -> Buffer.add_string buf (fsec f)
  | Trace.S s -> Json.escape buf s

let ph_label = function
  | Trace.Span_begin -> "begin"
  | Trace.Span_end -> "end"
  | Trace.Instant -> ""
  | Trace.Complete _ -> "span"

let add_path buf ~seqno ~node path =
  Printf.bprintf buf "critical path to slot %d on replica %d:\n" seqno node;
  List.iter
    (fun (step : Causal.step) ->
      match step with
      | Causal.Hop { send_ts; recv_ts; src; dst; mid; bytes } ->
          Printf.bprintf buf "  t=%ss  %d -> %d  mid=%d (%d B, +%ss wire)\n"
            (fsec send_ts) src dst mid bytes
            (fsec (recv_ts -. send_ts))
      | Causal.Local { ts; node; label } ->
          Printf.bprintf buf "  t=%ss  node %d  %s\n" (fsec ts) node label)
    path

let path_to_string ~seqno ~node path =
  let buf = Buffer.create 512 in
  add_path buf ~seqno ~node path;
  Buffer.contents buf

let max_timeline_entries = 400

let add_forensics buf (f : Forensics.t) =
  let p = Printf.bprintf in
  p buf "=== FORENSIC REPORT ===\n";
  p buf "invariant:  %s\n" f.invariant;
  p buf "detail:     %s\n" f.detail;
  p buf "violation:  t=%ss observed on replica %d\n" (fsec f.at) f.replica;
  (match f.slots with
  | [] -> p buf "implicated slots: (none identified)\n"
  | slots ->
      p buf "implicated slots:%s\n"
        (String.concat ""
           (List.map (fun s -> Printf.sprintf " %d" s) slots)));
  (match f.divergence with
  | None -> p buf "\ndivergence: no executed-digest divergence in trace window\n"
  | Some d ->
      p buf
        "\ndivergence: slot %d — replica %d executed %s, replica %d executed \
         %s\n"
        d.d_seqno d.d_node_a (Json.quote d.d_digest_a) d.d_node_b
        (Json.quote d.d_digest_b));
  p buf "\nfault-schedule actions before the violation (%d):\n"
    (List.length f.faults);
  List.iter
    (fun (fa : Forensics.fault) ->
      p buf "  t=%ss node %d %s" (fsec fa.f_at) fa.f_node fa.f_action;
      List.iter (add_arg buf) fa.f_args;
      Buffer.add_char buf '\n')
    f.faults;
  List.iter
    (fun (seqno, node, path) ->
      Buffer.add_char buf '\n';
      add_path buf ~seqno ~node path)
    f.paths;
  let n_timeline = List.length f.timeline in
  p buf "\ncausal timeline (%d events%s):\n" n_timeline
    (if n_timeline > max_timeline_entries then
       Printf.sprintf ", first %d shown" max_timeline_entries
     else "");
  List.iteri
    (fun i (e : Forensics.timeline_entry) ->
      if i < max_timeline_entries then begin
        p buf "  t=%ss node %d %s.%s" (fsec e.e_ts) e.e_node e.e_cat e.e_name;
        (match ph_label e.e_ph with "" -> () | l -> p buf " [%s]" l);
        if e.e_view >= 0 then p buf " view=%d" e.e_view;
        if e.e_seqno >= 0 then p buf " seqno=%d" e.e_seqno;
        List.iter (add_arg buf) e.e_args;
        Buffer.add_char buf '\n'
      end)
    f.timeline;
  p buf "=== END FORENSIC REPORT ===\n"

let forensics_to_string f =
  let buf = Buffer.create 4096 in
  add_forensics buf f;
  Buffer.contents buf
