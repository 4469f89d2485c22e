module Rng = Poe_simnet.Rng

type profile = {
  records : int;
  write_proportion : float;
  value_bytes : int;
  theta : float;
}

let paper_profile =
  { records = 500_000; write_proportion = 0.9; value_bytes = 32; theta = 0.9 }

let small_profile =
  { records = 1_000; write_proportion = 0.9; value_bytes = 16; theta = 0.9 }

type t = { profile : profile; zipf : Zipf.t; mutable nonce : int }

let create profile =
  if profile.records <= 0 then invalid_arg "Ycsb.create";
  {
    profile;
    zipf = Zipf.create ~n:profile.records ~theta:profile.theta;
    nonce = 0;
  }

let profile t = t.profile

let generate t rng =
  let rank = Zipf.next t.zipf rng in
  let key = "user" ^ string_of_int rank in
  if Rng.bool rng ~p:t.profile.write_proportion then begin
    t.nonce <- t.nonce + 1;
    let base = "w" ^ string_of_int t.nonce ^ "|" in
    let value =
      if String.length base >= t.profile.value_bytes then base
      else base ^ String.make (t.profile.value_bytes - String.length base) 'y'
    in
    Kv_store.Update (key, value)
  end
  else Kv_store.Read key

let populate t store =
  Kv_store.load_ycsb store ~records:t.profile.records
    ~payload_bytes:t.profile.value_bytes
