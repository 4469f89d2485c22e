(* Head first; the last element is the anchor — genesis, or the newest
   block at or below the last prune point. *)
type t = { mutable rev_blocks : Block.t list }

let create ~initial_primary = { rev_blocks = [ Block.genesis ~initial_primary ] }

let head t =
  match t.rev_blocks with
  | [] -> assert false (* a chain always has its anchor *)
  | b :: _ -> b

let append t ~seqno ~view ~batch_digest ~proof =
  let block = Block.make ~prev:(head t) ~seqno ~view ~batch_digest ~proof in
  t.rev_blocks <- block :: t.rev_blocks;
  block

let length t = List.length t.rev_blocks

let nth t height =
  List.find_opt (fun (b : Block.t) -> b.height = height) t.rev_blocks

(* Drop head blocks while [drop] holds, never dropping the anchor; the
   chain is left untouched when the walk would have to. *)
let drop_while t drop ~fn =
  let rec go n = function
    | [ b ] when drop b -> invalid_arg fn
    | b :: rest when drop b -> go (n + 1) rest
    | l ->
        t.rev_blocks <- l;
        n
  in
  go 0 t.rev_blocks

let rollback_to_height t height =
  if height < 0 || height > (head t).height then
    invalid_arg "Chain.rollback_to_height";
  drop_while t (fun b -> b.height > height) ~fn:"Chain.rollback_to_height"

let rollback_to_seqno t seqno =
  drop_while t (fun b -> b.seqno > seqno) ~fn:"Chain.rollback_to_seqno"

let prune_below t ~seqno =
  (* [Some kept] when a block older than the newest one at or below
     [seqno] exists to drop; the kept prefix ends at that block. *)
  let rec keep = function
    | [] -> None
    | (b : Block.t) :: rest when b.seqno <= seqno -> (
        match rest with [] -> None | _ :: _ -> Some [ b ])
    | b :: rest -> Option.map (fun kept -> b :: kept) (keep rest)
  in
  Option.iter (fun kept -> t.rev_blocks <- kept) (keep t.rev_blocks)

let verify t =
  let rec go = function
    | [] | [ _ ] -> Ok ()
    | (b : Block.t) :: (prev :: _ as rest) ->
        if not (String.equal b.prev_hash (Block.hash prev)) then
          Error
            (Printf.sprintf "broken hash link at height %d" b.height)
        else if b.height <> prev.height + 1 then
          Error (Printf.sprintf "height gap at height %d" b.height)
        else go rest
  in
  go t.rev_blocks

let blocks t = List.rev t.rev_blocks

let find_by_seqno t seqno =
  List.find_opt (fun (b : Block.t) -> b.seqno = seqno) t.rev_blocks

let of_blocks = function
  | [] -> Error "empty block list"
  | blocks ->
      let t = { rev_blocks = List.rev blocks } in
      Result.map (fun () -> t) (verify t)

let install t blocks =
  Result.map
    (fun (fresh : t) -> t.rev_blocks <- fresh.rev_blocks)
    (of_blocks blocks)
