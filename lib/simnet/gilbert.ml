type state = Good | Bad

type t = {
  loss_good : float;
  loss_bad : float;
  mean_good : float;
  mean_bad : float;
  mutable state : state;
}

let create ?(loss_good = 0.0) ~loss_bad ~mean_good ~mean_bad () =
  if loss_good < 0.0 || loss_good >= 1.0 || loss_bad < 0.0 || loss_bad >= 1.0
  then invalid_arg "Gilbert.create: loss probabilities must be in [0, 1)";
  if mean_good <= 0.0 || mean_bad <= 0.0 then
    invalid_arg "Gilbert.create: dwell times must be positive";
  { loss_good; loss_bad; mean_good; mean_bad; state = Good }

let state t = t.state

let loss t =
  match t.state with Good -> t.loss_good | Bad -> t.loss_bad

let dwell t rng =
  let mean = match t.state with Good -> t.mean_good | Bad -> t.mean_bad in
  Rng.exponential rng ~mean

let flip t = t.state <- (match t.state with Good -> Bad | Bad -> Good)

let pp fmt t =
  Format.fprintf fmt "gilbert[good %.3f/%.3fs bad %.3f/%.3fs now=%s]"
    t.loss_good t.mean_good t.loss_bad t.mean_bad
    (match t.state with Good -> "good" | Bad -> "bad")
