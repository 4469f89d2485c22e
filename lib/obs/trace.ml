type arg = I of int | F of float | S of string

type ph = Span_begin | Span_end | Instant | Complete of float

type event = {
  ts : float;
  node : int;
  tid : int;
  cat : string;
  name : string;
  ph : ph;
  view : int;
  seqno : int;
  args : (string * arg) list;
}

type open_slot = {
  mutable cur_phase : string option;
  opened : float;
  slot_cat : string;
}

type t = {
  capacity : int;
  buf : event option array;
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable dropped : int;
  open_slots : (int * int, open_slot) Hashtbl.t; (* (node, seqno) *)
}

(* Global index of the oldest retained event: everything before it was
   overwritten by the ring. *)
let first_retained t = t.dropped

let create ?(capacity = 1 lsl 18) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity >= 1";
  {
    capacity;
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    dropped = 0;
    open_slots = Hashtbl.create 1024;
  }

let record t ev =
  if t.len = t.capacity then t.dropped <- t.dropped + 1
  else t.len <- t.len + 1;
  t.buf.(t.head) <- Some ev;
  t.head <- (t.head + 1) mod t.capacity

let events t =
  let start = (t.head - t.len + t.capacity) mod t.capacity in
  List.init t.len (fun i ->
      match t.buf.((start + i) mod t.capacity) with
      | Some ev -> ev
      | None -> assert false)

let dropped t = t.dropped

let emitted t = t.dropped + t.len

let events_from t mark =
  let start_idx = first_retained t in
  let skip = max 0 (mark - start_idx) in
  if skip >= t.len then []
  else
    let start = (t.head - t.len + skip + t.capacity) mod t.capacity in
    List.init (t.len - skip) (fun i ->
        match t.buf.((start + i) mod t.capacity) with
        | Some ev -> ev
        | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Current sink                                                        *)

(* Domain-local, so concurrent simulations (one per worker domain of a
   Poe_parallel.Pool) each trace into their own ring without interleaving.
   For single-domain callers the API behaves exactly as a module-level
   ref: [set] installs a sink for this domain, emitters in the same
   domain see it. A freshly spawned domain starts with no sink. *)
let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let set t = current () := Some t
let clear () = current () := None
let enabled () = match !(current ()) with Some _ -> true | None -> false
let sink () = !(current ())

let instant ?(view = -1) ?(seqno = -1) ?(tid = 0) ?(args = []) ~ts ~node ~cat
    name =
  match !(current ()) with
  | None -> ()
  | Some t -> record t { ts; node; tid; cat; name; ph = Instant; view; seqno; args }

let complete ?(tid = 0) ?(args = []) ~ts ~dur ~node ~cat name =
  match !(current ()) with
  | None -> ()
  | Some t ->
      record t
        { ts; node; tid; cat; name; ph = Complete dur; view = -1; seqno = -1; args }

let with_span ?(view = -1) ?(seqno = -1) ?(tid = 0) ~ts ~node ~cat name f =
  match !(current ()) with
  | None -> f ()
  | Some t ->
      let span ph =
        record t
          { ts = ts (); node; tid; cat; name; ph; view; seqno; args = [] }
      in
      span Span_begin;
      Fun.protect ~finally:(fun () -> span Span_end) f

let phase ~ts ~node ~cat ~view ~seqno name =
  match !(current ()) with
  | None -> ()
  | Some t -> (
      let span ph name =
        record t { ts; node; tid = 0; cat; name; ph; view; seqno; args = [] }
      in
      match Hashtbl.find_opt t.open_slots (node, seqno) with
      | None ->
          span Span_begin "slot";
          span Span_begin name;
          Hashtbl.replace t.open_slots (node, seqno)
            { cur_phase = Some name; opened = ts; slot_cat = cat }
      | Some os ->
          if os.cur_phase <> Some name then begin
            (match os.cur_phase with
            | Some prev ->
                record t
                  {
                    ts;
                    node;
                    tid = 0;
                    cat = os.slot_cat;
                    name = prev;
                    ph = Span_end;
                    view;
                    seqno;
                    args = [];
                  }
            | None -> ());
            record t
              {
                ts;
                node;
                tid = 0;
                cat = os.slot_cat;
                name;
                ph = Span_begin;
                view;
                seqno;
                args = [];
              };
            os.cur_phase <- Some name
          end)

let slot_done ~ts ~node ~view ~seqno =
  match !(current ()) with
  | None -> None
  | Some t -> (
      match Hashtbl.find_opt t.open_slots (node, seqno) with
      | None -> None
      | Some os ->
          let span name =
            record t
              {
                ts;
                node;
                tid = 0;
                cat = os.slot_cat;
                name;
                ph = Span_end;
                view;
                seqno;
                args = [];
              }
          in
          (match os.cur_phase with Some p -> span p | None -> ());
          span "slot";
          Hashtbl.remove t.open_slots (node, seqno);
          Some (ts -. os.opened))

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

type format = Jsonl | Chrome

let format_name = function Jsonl -> "jsonl" | Chrome -> "chrome"

let escape_json = Json.escape

(* Fixed-precision float rendering keeps exports byte-identical across
   runs with the same seed. *)
let add_float buf f = Buffer.add_string buf (Printf.sprintf "%.9f" f)

let add_arg buf (k, v) =
  Json.escape buf k;
  Buffer.add_char buf ':';
  match v with
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f -> add_float buf f
  | S s -> Json.escape buf s

let add_args buf args =
  Buffer.add_char buf '{';
  Json.add_sep buf (add_arg buf) args;
  Buffer.add_char buf '}'

let ph_code = function
  | Span_begin -> "B"
  | Span_end -> "E"
  | Instant -> "i"
  | Complete _ -> "X"

let export_jsonl_events evs buf =
  List.iter
    (fun ev ->
      Buffer.add_string buf "{\"ts\":";
      add_float buf ev.ts;
      Buffer.add_string buf ",\"node\":";
      Buffer.add_string buf (string_of_int ev.node);
      Buffer.add_string buf ",\"tid\":";
      Buffer.add_string buf (string_of_int ev.tid);
      Buffer.add_string buf ",\"cat\":";
      Json.escape buf ev.cat;
      Buffer.add_string buf ",\"name\":";
      Json.escape buf ev.name;
      Buffer.add_string buf ",\"ph\":";
      Json.escape buf (ph_code ev.ph);
      (match ev.ph with
      | Complete dur ->
          Buffer.add_string buf ",\"dur\":";
          add_float buf dur
      | Span_begin | Span_end | Instant -> ());
      if ev.view >= 0 then begin
        Buffer.add_string buf ",\"view\":";
        Buffer.add_string buf (string_of_int ev.view)
      end;
      if ev.seqno >= 0 then begin
        Buffer.add_string buf ",\"seqno\":";
        Buffer.add_string buf (string_of_int ev.seqno)
      end;
      if ev.args <> [] then begin
        Buffer.add_string buf ",\"args\":";
        add_args buf ev.args
      end;
      Buffer.add_string buf "}\n")
    evs

let export_jsonl t buf = export_jsonl_events (events t) buf

(* Chrome trace_event: each node is a process; slot/phase spans are
   async events ("b"/"e") keyed by a per-(node, seqno) local id so
   overlapping slots (out-of-order windows) each get their own nested
   sub-track; Complete spans and instants land on the node's threads. *)
let us f = Printf.sprintf "%.3f" (f *. 1e6)

let export_chrome ?(node_name = Printf.sprintf "node %d") t buf =
  let evs = events t in
  Buffer.add_string buf "{\"traceEvents\":[";
  let emit_obj fields =
    Buffer.add_char buf '{';
    Json.add_sep buf
      (fun (k, v) ->
        Json.escape buf k;
        Buffer.add_char buf ':';
        Buffer.add_string buf v)
      fields;
    Buffer.add_char buf '}'
  in
  (* Process metadata: one named track group per node, in node order. *)
  let nodes =
    List.fold_left (fun acc ev -> if List.mem ev.node acc then acc else ev.node :: acc)
      [] evs
    |> List.sort compare
  in
  Json.add_sep buf
    (fun node ->
      emit_obj
        [
          ("name", Json.quote "process_name");
          ("ph", Json.quote "M");
          ("pid", string_of_int node);
          ("tid", "0");
          ("args", Printf.sprintf "{\"name\":%s}" (Json.quote (node_name node)));
        ])
    nodes;
  (* Every event's node has a metadata entry, so both lists are empty or
     neither is. *)
  if evs <> [] then Buffer.add_char buf ',';
  let base_args ev extra =
    let b = Buffer.create 64 in
    let args =
      (if ev.view >= 0 then [ ("view", I ev.view) ] else [])
      @ (if ev.seqno >= 0 then [ ("seqno", I ev.seqno) ] else [])
      @ ev.args @ extra
    in
    add_args b args;
    Buffer.contents b
  in
  Json.add_sep buf
    (fun ev ->
      let common =
        [
          ("name", Json.quote ev.name);
          ("cat", Json.quote ev.cat);
          ("ts", us ev.ts);
          ("pid", string_of_int ev.node);
          ("tid", string_of_int ev.tid);
        ]
      in
      match ev.ph with
      | Span_begin | Span_end ->
          let code = if ev.ph = Span_begin then "b" else "e" in
          emit_obj
            (common
            @ [
                ("ph", Json.quote code);
                ( "id2",
                  Printf.sprintf "{\"local\":%s}"
                    (Json.quote (Printf.sprintf "0x%x" (max ev.seqno 0))) );
                ("args", base_args ev []);
              ])
      | Instant ->
          emit_obj
            (common
            @ [
                ("ph", Json.quote "i");
                ("s", Json.quote "p");
                ("args", base_args ev []);
              ])
      | Complete dur ->
          emit_obj
            (common
            @ [ ("ph", Json.quote "X"); ("dur", us dur); ("args", base_args ev []) ]))
    evs;
  Buffer.add_string buf "]}\n"

let write_file ?node_name t ~format ~path =
  let buf = Buffer.create 65536 in
  (match format with
  | Jsonl -> export_jsonl t buf
  | Chrome -> export_chrome ?node_name t buf);
  match Json.write_file path (Buffer.contents buf) with
  | Ok () -> ()
  | Error e -> raise (Sys_error e)
