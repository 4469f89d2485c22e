module Sha256 = Poe_crypto.Sha256

type t = {
  table : (string, string) Hashtbl.t;
  mutable content_hash : int;  (* order-independent row fingerprint *)
}

type op =
  | Read of string
  | Update of string * string
  | Insert of string * string
  | Delete of string

type result = Value of string | Missing | Ok

type undo =
  | Nothing                       (* read: no state change *)
  | Restore of string * string    (* put this value back *)
  | Remove of string              (* key did not exist before *)

let create () = { table = Hashtbl.create 1024; content_hash = 0 }

let row_fingerprint key value = Hashtbl.hash (key, value)

(* The content hash is the XOR of all row fingerprints, so insertion and
   deletion update it incrementally in O(1). *)
let add_row t key value =
  Hashtbl.replace t.table key value;
  t.content_hash <- t.content_hash lxor row_fingerprint key value

let remove_row t key value =
  Hashtbl.remove t.table key;
  t.content_hash <- t.content_hash lxor row_fingerprint key value

let load_ycsb t ~records ~payload_bytes =
  let payload i =
    let base = "v" ^ string_of_int i ^ "|" in
    if String.length base >= payload_bytes then base
    else base ^ String.make (payload_bytes - String.length base) 'x'
  in
  for i = 0 to records - 1 do
    add_row t ("user" ^ string_of_int i) (payload i)
  done

let size t = Hashtbl.length t.table

let get t key = Hashtbl.find_opt t.table key

let copy t = { table = Hashtbl.copy t.table; content_hash = t.content_hash }

let rows t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []

let load_rows t rows =
  Hashtbl.reset t.table;
  t.content_hash <- 0;
  List.iter (fun (k, v) -> add_row t k v) rows

let apply t op =
  match op with
  | Read key -> (
      match get t key with
      | Some v -> (Value v, Nothing)
      | None -> (Missing, Nothing))
  | Update (key, value) | Insert (key, value) -> (
      match get t key with
      | Some prev ->
          remove_row t key prev;
          add_row t key value;
          (Ok, Restore (key, prev))
      | None ->
          add_row t key value;
          (Ok, Remove key))
  | Delete key -> (
      match get t key with
      | Some prev ->
          remove_row t key prev;
          (Ok, Restore (key, prev))
      | None -> (Missing, Nothing))

let revert t = function
  | Nothing -> ()
  | Restore (key, prev) -> (
      match get t key with
      | Some cur ->
          remove_row t key cur;
          add_row t key prev
      | None -> add_row t key prev)
  | Remove key -> (
      match get t key with
      | Some cur -> remove_row t key cur
      | None -> ())

let digest_hint t = Hashtbl.length t.table lxor t.content_hash

(* Encoding: 1-char opcode, then length-prefixed fields. *)
let encode_op op =
  let len s = string_of_int (String.length s) in
  match op with
  | Read k -> String.concat "" [ "R"; len k; ":"; k ]
  | Update (k, v) -> String.concat "" [ "U"; len k; ":"; k; len v; ":"; v ]
  | Insert (k, v) -> String.concat "" [ "I"; len k; ":"; k; len v; ":"; v ]
  | Delete k -> String.concat "" [ "D"; len k; ":"; k ]

(* The same bytes, fed into a hash. *)
let feed_field ctx s =
  Sha256.feed_int ctx (String.length s);
  Sha256.feed ctx ":";
  Sha256.feed ctx s

let feed_op ctx op =
  match op with
  | Read k -> Sha256.feed ctx "R"; feed_field ctx k
  | Update (k, v) -> Sha256.feed ctx "U"; feed_field ctx k; feed_field ctx v
  | Insert (k, v) -> Sha256.feed ctx "I"; feed_field ctx k; feed_field ctx v
  | Delete k -> Sha256.feed ctx "D"; feed_field ctx k

let parse_field s pos =
  match String.index_from_opt s pos ':' with
  | None -> None
  | Some colon -> (
      match int_of_string_opt (String.sub s pos (colon - pos)) with
      | None -> None
      | Some len ->
          if len < 0 || colon + 1 + len > String.length s then None
          else Some (String.sub s (colon + 1) len, colon + 1 + len))

let decode_op s =
  if String.length s = 0 then None
  else
    match s.[0] with
    | 'R' -> (
        match parse_field s 1 with
        | Some (k, pos) when pos = String.length s -> Some (Read k)
        | Some _ | None -> None)
    | 'D' -> (
        match parse_field s 1 with
        | Some (k, pos) when pos = String.length s -> Some (Delete k)
        | Some _ | None -> None)
    | 'U' | 'I' -> (
        match parse_field s 1 with
        | None -> None
        | Some (k, pos) -> (
            match parse_field s pos with
            | Some (v, pos') when pos' = String.length s ->
                Some (if s.[0] = 'U' then Update (k, v) else Insert (k, v))
            | Some _ | None -> None))
    | _ -> None

let op_key = function
  | Read k | Update (k, _) | Insert (k, _) | Delete k -> k

let pp_op fmt = function
  | Read k -> Format.fprintf fmt "read(%s)" k
  | Update (k, v) -> Format.fprintf fmt "update(%s,%d bytes)" k (String.length v)
  | Insert (k, v) -> Format.fprintf fmt "insert(%s,%d bytes)" k (String.length v)
  | Delete k -> Format.fprintf fmt "delete(%s)" k

let result_to_string = function
  | Value v -> "value(" ^ string_of_int (String.length v) ^ " bytes)"
  | Missing -> "missing"
  | Ok -> "ok"

let result_equal a b =
  match (a, b) with
  | Value x, Value y -> String.equal x y
  | Missing, Missing | Ok, Ok -> true
  | (Value _ | Missing | Ok), _ -> false
