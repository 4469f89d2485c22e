type share = { index : int; value : Gf61.t }

let split ~secret ~threshold ~shares ~rand =
  if threshold < 1 || threshold > shares || shares >= Gf61.p then
    invalid_arg "Shamir.split";
  (* coeffs.(0) is the secret; higher coefficients are random. *)
  let coeffs = Array.make threshold secret in
  for i = 1 to threshold - 1 do
    coeffs.(i) <- rand ()
  done;
  let eval x =
    (* Horner evaluation from the highest coefficient down. *)
    let acc = ref Gf61.zero in
    for i = threshold - 1 downto 0 do
      acc := Gf61.add (Gf61.mul !acc x) coeffs.(i)
    done;
    !acc
  in
  Array.init shares (fun i ->
      let index = i + 1 in
      { index; value = eval (Gf61.of_int index) })

let check_indices indices =
  if indices = [] then invalid_arg "Shamir: no shares";
  let sorted = List.sort_uniq compare indices in
  if List.length sorted <> List.length indices then
    invalid_arg "Shamir: duplicate share indices";
  if List.exists (fun i -> i = 0) indices then
    invalid_arg "Shamir: zero share index"

(* λ_i = Π_{j≠i} x_j / (x_j - x_i), computed as the product of the
   numerators times one inversion of the product of the denominators. *)
let lagrange_at_zero indices =
  check_indices indices;
  let xs = List.map Gf61.of_int indices in
  List.map
    (fun xi ->
      let rec go num den = function
        | [] -> Gf61.div num den
        | xj :: rest when Gf61.equal xi xj -> go num den rest
        | xj :: rest -> go (Gf61.mul num xj) (Gf61.mul den (Gf61.sub xj xi)) rest
      in
      go Gf61.one Gf61.one xs)
    xs

let reconstruct shares =
  let indices = List.map (fun s -> s.index) shares in
  let lambdas = lagrange_at_zero indices in
  List.fold_left2
    (fun acc s lambda -> Gf61.add acc (Gf61.mul lambda s.value))
    Gf61.zero shares lambdas
