(* splitmix64: tiny state, excellent statistical quality for simulation use,
   and trivially splittable. The state lives unboxed in 8 bytes, so a draw
   that returns an [int] or a [float] allocates nothing. *)

type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next t

let split t = of_state (next t)

let copy t = Bytes.copy t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* Take the low 62 bits to get a non-negative OCaml int, then reject-free
     modulo (bias is negligible for simulation bounds << 2^62). *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  (* 53 random bits into [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t ~p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
