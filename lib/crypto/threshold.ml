type scheme = {
  n : int;
  threshold : int;
  master : Gf61.t;            (* verification key: σ must equal master·H(m) *)
  key_shares : Gf61.t array;  (* dealer copy, used to verify shares *)
  inverses : Gf61.t array;
      (* [inverses.(d)] is 1/d for 0 < d < n once computed, zero before:
         signer i sits at point i+1, so every Lagrange denominator
         x_j - x_i is a signed difference of at most n-1. *)
}

type signer = { index : int; key : Gf61.t }

type share = { share_index : int; value : Gf61.t }

type signature = Gf61.t

(* Deterministic stream of field elements derived from a seed, used by the
   dealer for the polynomial coefficients. *)
let field_stream seed =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let block = Hmac.mac ~key:seed (string_of_int !counter) in
    Gf61.of_bytes block

let setup ~n ~threshold ~seed =
  if n < 1 || threshold < 1 || threshold > n then invalid_arg "Threshold.setup";
  let rand = field_stream seed in
  let master = rand () in
  let shares = Shamir.split ~secret:master ~threshold ~shares:n ~rand in
  let key_shares = Array.map (fun (s : Shamir.share) -> s.value) shares in
  let scheme =
    { n; threshold; master; key_shares; inverses = Array.make n Gf61.zero }
  in
  let signers =
    Array.init n (fun i -> { index = i; key = key_shares.(i) })
  in
  (scheme, signers)

let n scheme = scheme.n
let threshold scheme = scheme.threshold

(* Hash a message to a non-zero field element. Zero would make every share
   trivially zero, so it is mapped to one. *)
let hash_to_field msg =
  let h = Gf61.of_bytes (Sha256.digest msg) in
  if Gf61.equal h Gf61.zero then Gf61.one else h

let sign_share signer msg =
  { share_index = signer.index; value = Gf61.mul signer.key (hash_to_field msg) }

let share_index s = s.share_index
let share_value s = s.value

(* [h] is [hash_to_field msg]. *)
let share_valid scheme h share =
  share.share_index >= 0
  && share.share_index < scheme.n
  && Gf61.equal share.value (Gf61.mul scheme.key_shares.(share.share_index) h)

let verify_share scheme ~msg share =
  share_valid scheme (hash_to_field msg) share

(* 1/d for 0 < |d| < n, filled on first use; 1/(-d) = -(1/d). *)
let inv_diff scheme d =
  let a = abs d in
  let v = scheme.inverses.(a) in
  let v =
    if Gf61.equal v Gf61.zero then begin
      let v = Gf61.inv (Gf61.of_int a) in
      scheme.inverses.(a) <- v;
      v
    end
    else v
  in
  if d < 0 then Gf61.neg v else v

let combine scheme ~msg shares =
  let distinct =
    List.sort_uniq compare (List.map (fun s -> s.share_index) shares)
  in
  if List.length distinct <> List.length shares then
    Error "duplicate signer in share set"
  else if List.length shares < scheme.threshold then
    Error
      (Printf.sprintf "need %d shares, got %d" scheme.threshold
         (List.length shares))
  else if
    let h = hash_to_field msg in
    not (List.for_all (share_valid scheme h) shares)
  then Error "invalid share in set"
  else begin
    (* σ = Σ_i λ_i · s_i with λ_i = Π_{j≠i} x_j / (x_j - x_i) and signer i
       at Shamir point x_i = i+1: [Shamir.lagrange_at_zero] with each
       division a lookup, so a warm scheme combines without inverting. *)
    let lambda i =
      List.fold_left
        (fun acc s ->
          let j = s.share_index in
          if j = i then acc
          else
            Gf61.mul acc
              (Gf61.mul (Gf61.of_int (j + 1)) (inv_diff scheme (j - i))))
        Gf61.one shares
    in
    Ok
      (List.fold_left
         (fun acc s -> Gf61.add acc (Gf61.mul (lambda s.share_index) s.value))
         Gf61.zero shares)
  end

let cached_inverses scheme =
  Array.fold_left
    (fun n v -> if Gf61.equal v Gf61.zero then n else n + 1)
    0 scheme.inverses

let verify scheme ~msg sigma =
  Gf61.equal sigma (Gf61.mul scheme.master (hash_to_field msg))

let signature_bytes sigma =
  let v = Gf61.to_int sigma in
  String.init 8 (fun i -> Char.chr ((v lsr ((7 - i) * 8)) land 0xFF))

let signature_of_bytes s =
  if String.length s <> 8 then None
  else begin
    let v = ref 0 in
    (* Field elements fit in 61 bits, so the top byte's high bits are 0 and
       the accumulation cannot overflow OCaml's 63-bit int. *)
    String.iter (fun c -> v := (!v lsl 8) lor Char.code c) s;
    if !v < 0 || !v >= Gf61.p then None else Some (Gf61.of_int !v)
  end

let forge_share ~index msg =
  { share_index = index; value = Gf61.add (hash_to_field msg) Gf61.one }
