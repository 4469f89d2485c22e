(** Structured tracing for the simulator.

    Events carry the simulated timestamp (always [Engine.now], never
    wall-clock), the emitting node, a category (protocol or subsystem
    name), an event name, and optional consensus coordinates (view,
    seqno) plus free-form arguments. Events land in a fixed-capacity
    ring buffer; exporters turn the retained window into JSONL or
    Chrome [trace_event] JSON (loadable in Perfetto, one track per
    node, per-slot async spans nesting the consensus phases).

    Tracing is opt-in through a module-level current sink: with no
    sink installed every emitter is a single load-and-branch, so the
    instrumented hot paths cost nothing measurable when disabled.
    Call sites on very hot paths should additionally guard with
    {!enabled} so argument lists are never even allocated. *)

type arg = I of int | F of float | S of string

type ph =
  | Span_begin
  | Span_end
  | Instant
  | Complete of float  (** self-contained span; payload is the duration *)

type event = {
  ts : float;  (** simulated seconds *)
  node : int;  (** replica id, or [n + hub] for client hubs *)
  tid : int;  (** sub-track within the node (e.g. a CPU lane); 0 = default *)
  cat : string;  (** protocol or subsystem: "poe", "net", "server", ... *)
  name : string;  (** event or phase name: "propose", "send", ... *)
  ph : ph;
  view : int;  (** -1 when not applicable *)
  seqno : int;  (** -1 when not applicable *)
  args : (string * arg) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer of [capacity] events (default [1 lsl 18]); once full,
    the oldest events are overwritten. *)

val events : t -> event list
(** Retained events, oldest first. *)

val dropped : t -> int
(** Events overwritten because the ring wrapped. *)

val emitted : t -> int
(** Total events ever recorded (retained + dropped). The global index of
    event [i] in {!events} is [emitted t - List.length (events t) + i]. *)

val events_from : t -> int -> event list
(** [events_from t mark] is the still-retained suffix of events whose
    global index is [>= mark] — capture [emitted t] before a sub-run
    (e.g. one chaos round) to slice its events out of a shared ring.
    Events already overwritten are silently missing, exactly as with
    {!events}. *)

(** {1 The current sink}

    Each simulation runs single-threaded within one domain, so the
    current sink is {e domain-local} ([Domain.DLS]): [set] installs a
    sink for the calling domain only, and every emitter reads its own
    domain's sink. Single-domain callers see exactly the old
    module-level-ref behaviour; parallel sweeps (one simulation per
    {!Poe_parallel.Pool} worker) trace into disjoint rings with no
    interleaving or races. A freshly spawned domain starts with no
    sink installed. *)

val set : t -> unit
val clear : unit -> unit
val enabled : unit -> bool

val sink : unit -> t option
(** The currently installed sink, if any — lets post-hoc consumers (the
    chaos runner's forensic explainer) read back what a run recorded. *)

(** {1 Emitters}

    All emitters are no-ops when no sink is installed. *)

val instant :
  ?view:int ->
  ?seqno:int ->
  ?tid:int ->
  ?args:(string * arg) list ->
  ts:float ->
  node:int ->
  cat:string ->
  string ->
  unit
(** A point event (Chrome "i"). *)

val complete :
  ?tid:int ->
  ?args:(string * arg) list ->
  ts:float ->
  dur:float ->
  node:int ->
  cat:string ->
  string ->
  unit
(** A self-contained span (Chrome "X"), e.g. one work item on a CPU
    lane: starts at [ts], lasts [dur]. *)

val with_span :
  ?view:int ->
  ?seqno:int ->
  ?tid:int ->
  ts:(unit -> float) ->
  node:int ->
  cat:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span ~ts ... name f] brackets [f] in a begin/end span pair,
    closing the span even when [f] raises ([Fun.protect]). [ts] is a
    thunk (not a float) so the end event reads the clock {e after} [f]
    ran; with no sink installed it is never called and [f] runs bare. *)

val phase :
  ts:float -> node:int -> cat:string -> view:int -> seqno:int -> string -> unit
(** Record that consensus slot [seqno] on [node] entered the named
    phase. The first phase of a slot opens an enclosing "slot" span;
    each subsequent distinct phase closes the previous phase span and
    opens the next, so a committed slot renders as
    slot[propose[...]support[...]certify[...]execute[...]]. Calling
    [phase] again with the current phase name is a no-op. *)

val slot_done : ts:float -> node:int -> view:int -> seqno:int -> float option
(** Close the open phase and the slot span for [(node, seqno)].
    Returns the slot's total duration (first phase to [ts]), or [None]
    if no slot was open (e.g. a slot adopted via state transfer). *)

(** {1 Export} *)

type format = Jsonl | Chrome

val format_name : format -> string

val escape_json : Buffer.t -> string -> unit
(** {!Json.escape}, kept under its old name. *)

val export_jsonl_events : event list -> Buffer.t -> unit
(** {!export_jsonl} for an explicit event list — the flight recorder uses
    this to dump a bounded last-N window sliced out of a live ring. *)

val export_jsonl : t -> Buffer.t -> unit
(** One JSON object per line, field-for-field the {!event} record.
    Output is deterministic: events appear in emission order and all
    numbers are formatted with fixed precision. Strings may hold
    arbitrary bytes: anything outside printable ASCII is escaped as
    [\u00XX] (byte value), so the output is always valid JSON and the
    analysis reader's decode is byte-exact. *)

val export_chrome : ?node_name:(int -> string) -> t -> Buffer.t -> unit
(** Chrome [trace_event] JSON ({["traceEvents": [...]]}) suitable for
    Perfetto. Each node becomes a process (named by [node_name],
    default ["node %d"]); slot spans and their nested phases are async
    events keyed per (node, seqno); {!complete} spans and instants are
    placed on the node's threads. *)

val write_file :
  ?node_name:(int -> string) -> t -> format:format -> path:string -> unit
(** Export to [path] through {!Json.write_file}; raises [Sys_error] when
    the file cannot be written. *)
