let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\000'

let xor_pad key byte =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor byte))

(* HMAC's two padded key blocks, compressed once per tag; the message
   then streams through the inner state and one outer block follows. *)
let mac ~key msg =
  Poe_prof.Prof.(bump ix_macs_computed);
  let key = normalize_key key in
  let ctx = Sha256.resume (Sha256.midstate_of_block (xor_pad key 0x36)) in
  Sha256.feed ctx msg;
  let inner_digest = Sha256.finalize ctx in
  let ctx = Sha256.resume (Sha256.midstate_of_block (xor_pad key 0x5c)) in
  Sha256.feed ctx inner_digest;
  Sha256.finalize ctx

(* Constant-time fold so verification time does not leak the mismatch
   position. *)
let eq_constant_time a b =
  String.length a = String.length b
  &&
  let diff = ref 0 in
  String.iteri
    (fun i c -> diff := !diff lor (Char.code c lxor Char.code b.[i]))
    a;
  !diff = 0

let verify ~key msg ~tag = eq_constant_time tag (mac ~key msg)

let truncated ~key msg n =
  if n < 1 || n > Sha256.digest_size then invalid_arg "Hmac.truncated";
  String.sub (mac ~key msg) 0 n
