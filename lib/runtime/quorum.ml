(* One count per distinct digest, newest first; there is usually exactly
   one. A count can fall to zero when [replace] moves a vote away. *)
type entry = { digest : string; mutable count : int }

type t = {
  votes : string array;  (* replica -> its vote, or [absent] *)
  mutable size : int;
  mutable entries : entry list;
}

(* Compared physically, so no digest a caller passes can be mistaken for
   it. *)
let absent = String.make 1 '\000'

let create n = { votes = Array.make n absent; size = 0; entries = [] }

type outcome = Added | Duplicate | Out_of_range

(* A digest is only ever shifted down after it was shifted up, so a new
   entry is always a first vote. *)
let rec shift t digest by = function
  | [] -> t.entries <- { digest; count = by } :: t.entries
  | e :: rest ->
      if String.equal e.digest digest then e.count <- e.count + by
      else shift t digest by rest

let add t ~src ~digest =
  if src < 0 || src >= Array.length t.votes then Out_of_range
  else if t.votes.(src) != absent then Duplicate
  else begin
    t.votes.(src) <- digest;
    t.size <- t.size + 1;
    shift t digest 1 t.entries;
    Added
  end

let replace t ~src ~digest =
  if src < 0 || src >= Array.length t.votes then Out_of_range
  else begin
    let prev = t.votes.(src) in
    t.votes.(src) <- digest;
    shift t digest 1 t.entries;
    if prev == absent then begin
      t.size <- t.size + 1;
      Added
    end
    else begin
      shift t prev (-1) t.entries;
      Duplicate
    end
  end

let rec count_in digest = function
  | [] -> 0
  | e :: rest ->
      if String.equal e.digest digest then e.count else count_in digest rest

let count t digest = count_in digest t.entries

let find_or_create tbl key ~n =
  match Hashtbl.find_opt tbl key with
  | Some q -> q
  | None ->
      let q = create n in
      Hashtbl.replace tbl key q;
      q

let size t = t.size

let signers ?digest t =
  let acc = ref [] in
  for id = Array.length t.votes - 1 downto 0 do
    let d = t.votes.(id) in
    if d != absent && Option.fold ~none:true ~some:(String.equal d) digest
    then acc := id :: !acc
  done;
  !acc

(* Entries are newest first, so [>=] hands a tie to the older digest. The
   order is immaterial to every caller: they act only at a count above
   n/2 (SBFT's collector at n or nf, and 2nf > n), which at most one
   digest can reach. *)
let best t =
  List.fold_left
    (fun acc e ->
      match acc with
      | Some (_, c) when c > e.count -> acc
      | Some _ | None -> Some (e.digest, e.count))
    None t.entries
