module Ctx = Poe_runtime.Replica_ctx
module Chain = Poe_ledger.Chain

type violation = {
  at : float;
  invariant : string;
  replica : int option;
  detail : string;
  seqnos : int list;
}

type baseline = {
  mutable gen : int;  (** snapshot generation the frozen set belongs to *)
  frozen : (int, string) Hashtbl.t;  (** seqno -> digest, at/below stable *)
}

type t = {
  ctxs : Ctx.t array;
  speculative : bool;
  paused : int -> bool;
  baselines : baseline array;
  mutable violation : violation option;
  mutable samples : int;
}

let create ~ctxs ~speculative ~paused () =
  {
    ctxs;
    speculative;
    paused;
    baselines =
      Array.map (fun _ -> { gen = 0; frozen = Hashtbl.create 256 }) ctxs;
    violation = None;
    samples = 0;
  }

let violation t = t.violation
let samples t = t.samples

let pp_violation ppf v =
  Format.fprintf ppf "t=%.4f [%s]%s %s" v.at v.invariant
    (match v.replica with
    | Some r -> Printf.sprintf " replica %d:" r
    | None -> "")
    v.detail

let flag t ~at ~invariant ?replica ?(seqnos = []) detail =
  if t.violation = None then
    t.violation <- Some { at; invariant; replica; detail; seqnos }

(* Local invariants apply to every live replica, honest or not, connected
   or not: a replica's own ledger and execution log must stay well-formed
   regardless of how it behaves on the wire. *)
let check_local t ~now id ctx digests =
  if Ctx.duplicate_executions ctx > 0 then
    flag t ~at:now ~invariant:"at-most-once" ~replica:id
      (Printf.sprintf "%d duplicate request execution(s)"
         (Ctx.duplicate_executions ctx));
  (match Ctx.chain ctx with
  | None -> ()
  | Some chain -> (
      match Chain.verify chain with
      | Ok () -> ()
      | Error e ->
          flag t ~at:now ~invariant:"chain-integrity" ~replica:id e));
  (* Stable-checkpoint freeze. *)
  let b = t.baselines.(id) in
  let gen = Ctx.snapshot_generation ctx in
  if gen <> b.gen then begin
    (* Snapshot adoption replaced history wholesale: re-baseline. *)
    b.gen <- gen;
    Hashtbl.reset b.frozen
  end;
  let stable = Ctx.stable_seqno ctx in
  Hashtbl.iter
    (fun seqno frozen_digest ->
      match Hashtbl.find_opt digests seqno with
      | Some d when String.equal d frozen_digest -> ()
      | Some _ ->
          flag t ~at:now ~invariant:"checkpoint-rollback" ~replica:id
            ~seqnos:[ seqno ]
            (Printf.sprintf "digest at stable seqno %d rewritten" seqno)
      | None ->
          flag t ~at:now ~invariant:"checkpoint-rollback" ~replica:id
            ~seqnos:[ seqno ]
            (Printf.sprintf "entry at stable seqno %d disappeared" seqno))
    b.frozen;
  Hashtbl.iter
    (fun seqno d ->
      if seqno <= stable && not (Hashtbl.mem b.frozen seqno) then
        Hashtbl.add b.frozen seqno d)
    digests

let digest_table ctx =
  let tbl = Hashtbl.create 512 in
  Ctx.iter_executed ctx (Hashtbl.replace tbl);
  tbl

(* Cross-replica agreement over [participants = (id, ctx, digests)].
   [certified_only] restricts each pair's comparison to seqnos at or below
   both replicas' stable checkpoints (the speculative mid-run mode). *)
let check_agreement t ~now ~certified_only participants =
  let rec pairs = function
    | [] -> ()
    | (ia, ca, da) :: rest ->
        List.iter
          (fun (ib, cb, db) ->
            let limit =
              if certified_only then
                min (Ctx.stable_seqno ca) (Ctx.stable_seqno cb)
              else max_int
            in
            Hashtbl.iter
              (fun seqno digest ->
                if seqno <= limit then
                  match Hashtbl.find_opt db seqno with
                  | Some d' when not (String.equal digest d') ->
                      flag t ~at:now ~invariant:"prefix-agreement"
                        ~seqnos:[ seqno ]
                        (Printf.sprintf
                           "replicas %d and %d disagree at seqno %d (%s vs %s)"
                           ia ib seqno (String.sub digest 0 (min 8 (String.length digest)))
                           (String.sub d' 0 (min 8 (String.length d'))))
                  | _ -> ())
              da)
          rest;
        pairs rest
  in
  pairs participants

let run_checks t ~now ~certified_only =
  if t.violation = None then begin
    t.samples <- t.samples + 1;
    let participants = ref [] in
    Array.iteri
      (fun id ctx ->
        if Ctx.alive ctx then begin
          let digests = digest_table ctx in
          check_local t ~now id ctx digests;
          (* Only currently-honest, connected replicas take part in the
             cross-replica comparison: a byzantine replica's log is
             arbitrary by definition, and a paused one may hold a stale
             speculative suffix it will roll back on reconnection. *)
          if Ctx.behavior ctx = Ctx.Honest && not (t.paused id) then
            participants := (id, ctx, digests) :: !participants
        end)
      t.ctxs;
    check_agreement t ~now ~certified_only (List.rev !participants)
  end

let sample t ~now = run_checks t ~now ~certified_only:t.speculative
let final_check t ~now = run_checks t ~now ~certified_only:false
