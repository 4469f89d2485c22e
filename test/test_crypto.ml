(* Tests for the cryptographic substrate: SHA-256 against FIPS/NIST vectors,
   HMAC against RFC 4231, field laws for GF(2^61-1), Shamir reconstruction,
   and the threshold signature scheme's quorum/forgery behaviour. *)

module Sha256 = Poe_crypto.Sha256
module Hmac = Poe_crypto.Hmac
module Gf61 = Poe_crypto.Gf61
module Shamir = Poe_crypto.Shamir
module Threshold = Poe_crypto.Threshold

let hex = Sha256.to_hex

let of_hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

(* ------------------------------------------------------------------ *)
(* SHA-256                                                             *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
  ]

let test_sha_vectors () =
  List.iter
    (fun (msg, expected) ->
      Alcotest.(check string) ("sha256 of " ^ msg) expected (hex (Sha256.digest msg)))
    sha_vectors

let test_sha_million_a () =
  (* NIST long test: one million 'a' characters. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed ctx chunk
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.finalize ctx))

let test_sha_streaming_equivalence () =
  (* Arbitrary chunkings hash identically to one-shot. *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let expected = Sha256.digest msg in
  List.iter
    (fun sizes ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      let rec go sizes =
        if !pos < String.length msg then begin
          let k, rest =
            match sizes with [] -> (64, []) | k :: rest -> (k, rest)
          in
          let k = min k (String.length msg - !pos) in
          Sha256.feed ctx (String.sub msg !pos k);
          pos := !pos + k;
          go rest
        end
      in
      go sizes;
      Alcotest.(check string) "chunked" (hex expected) (hex (Sha256.finalize ctx)))
    [ [ 1; 2; 3; 500 ]; [ 63 ]; [ 64 ]; [ 65; 1 ]; [ 999 ]; [ 1000 ] ]

(* The OCaml compression function the C kernel replaced, kept as a
   test-only reference: one-shot SHA-256 over a fully padded copy of the
   message. *)
module Reference = struct
  let mask = 0xFFFFFFFF

  let k = [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let compress h s off =
    let w = Array.make 64 0 in
    for i = 0 to 15 do
      let j = off + (i * 4) in
      w.(i) <-
        (Char.code s.[j] lsl 24)
        lor (Char.code s.[j + 1] lsl 16)
        lor (Char.code s.[j + 2] lsl 8)
        lor Char.code s.[j + 3]
    done;
    for i = 16 to 63 do
      let s0 =
        rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3)
      in
      let s1 =
        rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10)
      in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land mask in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land mask
    done;
    List.iteri
      (fun i v -> h.(i) <- (h.(i) + v) land mask)
      [ !a; !b; !c; !d; !e; !f; !g; !hh ]

  let digest msg =
    let len = String.length msg in
    let padded = (len + 9 + 63) / 64 * 64 in
    let b = Bytes.make padded '\000' in
    Bytes.blit_string msg 0 b 0 len;
    Bytes.set b len '\x80';
    for i = 0 to 7 do
      Bytes.set b (padded - 1 - i) (Char.chr (((len * 8) lsr (8 * i)) land 0xFF))
    done;
    let h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
    in
    for blk = 0 to (padded / 64) - 1 do
      compress h (Bytes.to_string b) (blk * 64)
    done;
    String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))
end

let msg_gen = QCheck.(string_of_size Gen.(0 -- 300))

(* Feed [msg] in pieces of the given sizes, each taken mod 70 and clipped
   to what is left, then the rest as one final piece. *)
let feed_chunked ctx msg sizes =
  let pos = ref 0 in
  List.iter
    (fun k ->
      let k = min (k mod 70) (String.length msg - !pos) in
      Sha256.feed ctx (String.sub msg !pos k);
      pos := !pos + k)
    sizes;
  Sha256.feed ctx (String.sub msg !pos (String.length msg - !pos))

let sha_qcheck =
  [
    QCheck.Test.make ~name:"kernel matches the reference" ~count:1000 msg_gen
      (fun msg -> Sha256.digest msg = Reference.digest msg);
    QCheck.Test.make ~name:"chunked feed matches the reference" ~count:1000
      QCheck.(pair msg_gen (small_list small_nat))
      (fun (msg, sizes) ->
        let ctx = Sha256.init () in
        feed_chunked ctx msg sizes;
        Sha256.finalize ctx = Reference.digest msg);
    QCheck.Test.make ~name:"midstate and resume match the reference"
      ~count:1000
      QCheck.(triple (string_of_size (Gen.return 64)) msg_gen (small_list small_nat))
      (fun (block, msg, sizes) ->
        let ctx = Sha256.resume (Sha256.midstate_of_block block) in
        feed_chunked ctx msg sizes;
        Sha256.finalize ctx = Reference.digest (block ^ msg));
    QCheck.Test.make ~name:"feed_int feeds string_of_int" ~count:1000
      QCheck.(pair (string_of_size Gen.(0 -- 70)) int)
      (fun (prefix, n) ->
        List.for_all
          (fun n ->
            let ctx = Sha256.init () in
            Sha256.feed ctx prefix;
            Sha256.feed_int ctx n;
            Sha256.finalize ctx = Sha256.digest (prefix ^ string_of_int n))
          [ n; min_int; -1; 0; max_int ]);
    QCheck.Test.make ~name:"feed_hex feeds to_hex" ~count:1000
      QCheck.(pair (string_of_size Gen.(0 -- 70)) msg_gen)
      (fun (prefix, s) ->
        let ctx = Sha256.init () in
        Sha256.feed ctx prefix;
        Sha256.feed_hex ctx s;
        Sha256.finalize ctx = Sha256.digest (prefix ^ Sha256.to_hex s));
  ]

(* ------------------------------------------------------------------ *)
(* HMAC (RFC 4231)                                                     *)

let test_hmac_rfc4231 () =
  (* Test case 1 *)
  let key = String.make 20 '\x0b' in
  Alcotest.(check string) "rfc4231 tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.mac ~key "Hi There"));
  (* Test case 2: short key "Jefe" *)
  Alcotest.(check string) "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  (* Test case 3: 20 x 0xaa key, 50 x 0xdd data *)
  Alcotest.(check string) "rfc4231 tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  (* Test case 6: 131-byte key (> block size, must be hashed) *)
  Alcotest.(check string) "rfc4231 tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Hmac.mac
          ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let key = "secret" and msg = "message" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts valid" true (Hmac.verify ~key msg ~tag);
  Alcotest.(check bool) "rejects wrong msg" false (Hmac.verify ~key "other" ~tag);
  Alcotest.(check bool) "rejects wrong key" false
    (Hmac.verify ~key:"wrong" msg ~tag);
  let corrupted = of_hex (hex tag) in
  let corrupted =
    String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
      corrupted
  in
  Alcotest.(check bool) "rejects bit flip" false
    (Hmac.verify ~key msg ~tag:corrupted);
  Alcotest.(check bool) "rejects truncated" false
    (Hmac.verify ~key msg ~tag:(String.sub tag 0 16))

let test_hmac_truncated () =
  let key = "k" and msg = "m" in
  let full = Hmac.mac ~key msg in
  Alcotest.(check string) "prefix" (String.sub full 0 8) (Hmac.truncated ~key msg 8);
  Alcotest.check_raises "zero length" (Invalid_argument "Hmac.truncated")
    (fun () -> ignore (Hmac.truncated ~key msg 0))

(* ------------------------------------------------------------------ *)
(* GF(2^61 - 1)                                                        *)

let gf_gen =
  QCheck.map
    (fun x -> Gf61.of_int (abs x))
    QCheck.(int_bound max_int |> map (fun x -> x))

let gf3 = QCheck.triple gf_gen gf_gen gf_gen

let gf_qcheck =
  [
    QCheck.Test.make ~name:"add commutative" ~count:1000
      (QCheck.pair gf_gen gf_gen)
      (fun (a, b) -> Gf61.equal (Gf61.add a b) (Gf61.add b a));
    QCheck.Test.make ~name:"mul commutative" ~count:1000
      (QCheck.pair gf_gen gf_gen)
      (fun (a, b) -> Gf61.equal (Gf61.mul a b) (Gf61.mul b a));
    QCheck.Test.make ~name:"add associative" ~count:1000 gf3 (fun (a, b, c) ->
        Gf61.equal (Gf61.add a (Gf61.add b c)) (Gf61.add (Gf61.add a b) c));
    QCheck.Test.make ~name:"mul associative" ~count:1000 gf3 (fun (a, b, c) ->
        Gf61.equal (Gf61.mul a (Gf61.mul b c)) (Gf61.mul (Gf61.mul a b) c));
    QCheck.Test.make ~name:"distributivity" ~count:1000 gf3 (fun (a, b, c) ->
        Gf61.equal (Gf61.mul a (Gf61.add b c))
          (Gf61.add (Gf61.mul a b) (Gf61.mul a c)));
    QCheck.Test.make ~name:"additive inverse" ~count:1000 gf_gen (fun a ->
        Gf61.equal (Gf61.add a (Gf61.neg a)) Gf61.zero);
    QCheck.Test.make ~name:"subtraction" ~count:1000
      (QCheck.pair gf_gen gf_gen)
      (fun (a, b) -> Gf61.equal (Gf61.sub a b) (Gf61.add a (Gf61.neg b)));
    QCheck.Test.make ~name:"multiplicative inverse" ~count:500 gf_gen (fun a ->
        QCheck.assume (not (Gf61.equal a Gf61.zero));
        Gf61.equal (Gf61.mul a (Gf61.inv a)) Gf61.one);
    QCheck.Test.make ~name:"pow matches repeated mul" ~count:200
      (QCheck.pair gf_gen (QCheck.int_bound 30))
      (fun (a, e) ->
        let rec naive acc i = if i = 0 then acc else naive (Gf61.mul acc a) (i - 1) in
        Gf61.equal (Gf61.pow a e) (naive Gf61.one e));
    QCheck.Test.make ~name:"canonical range" ~count:1000
      QCheck.(pair int int)
      (fun (a, b) ->
        let s = Gf61.add (Gf61.of_int a) (Gf61.of_int b) in
        Gf61.to_int s >= 0 && Gf61.to_int s < Gf61.p);
  ]

let test_gf_edge_cases () =
  let pm1 = Gf61.of_int (Gf61.p - 1) in
  Alcotest.(check bool) "(p-1)+1 = 0" true
    (Gf61.equal (Gf61.add pm1 Gf61.one) Gf61.zero);
  Alcotest.(check bool) "(p-1)^2 = 1" true
    (Gf61.equal (Gf61.mul pm1 pm1) Gf61.one);
  Alcotest.(check bool) "of_int p = 0" true
    (Gf61.equal (Gf61.of_int Gf61.p) Gf61.zero);
  Alcotest.(check bool) "of_int (-1) = p-1" true
    (Gf61.equal (Gf61.of_int (-1)) pm1);
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (Gf61.inv Gf61.zero))

(* ------------------------------------------------------------------ *)
(* Shamir                                                              *)

let mk_rng seed =
  let rng = Poe_simnet.Rng.create seed in
  fun () -> Gf61.of_int (abs (Int64.to_int (Poe_simnet.Rng.int64 rng)))

(* [0 .. n-1] in an order fixed by [seed]. *)
let shuffled n seed =
  let st = Random.State.make [| seed |] in
  List.init n (fun i -> (Random.State.bits st, i))
  |> List.sort compare |> List.map snd

let shamir_qcheck =
  [
    QCheck.Test.make ~name:"any threshold-sized subset reconstructs" ~count:100
      (QCheck.triple (QCheck.int_range 1 8) (QCheck.int_range 0 20)
         QCheck.small_nat)
      (fun (threshold, extra, secret_raw) ->
        let shares_n = threshold + extra in
        let secret = Gf61.of_int secret_raw in
        let shares =
          Shamir.split ~secret ~threshold ~shares:shares_n
            ~rand:(mk_rng (threshold + extra))
        in
        (* Take an arbitrary subset of exactly [threshold] shares. *)
        let subset =
          Array.to_list shares
          |> List.filteri (fun i _ -> i mod (extra + 1) = 0 || i < threshold)
          |> List.filteri (fun i _ -> i < threshold)
        in
        Gf61.equal (Shamir.reconstruct subset) secret);
    QCheck.Test.make ~name:"lagrange_at_zero matches the pairwise product"
      ~count:200
      QCheck.(pair (int_range 1 16) int)
      (fun (k, seed) ->
        (* Distinct non-zero points drawn from 1..64. *)
        let indices =
          List.filteri (fun i _ -> i < k) (shuffled 64 seed)
          |> List.map (fun i -> i + 1)
        in
        let pairwise =
          let xs = List.map Gf61.of_int indices in
          List.map
            (fun xi ->
              List.fold_left
                (fun acc xj ->
                  if Gf61.equal xi xj then acc
                  else Gf61.mul acc (Gf61.div xj (Gf61.sub xj xi)))
                Gf61.one xs)
            xs
        in
        List.equal Gf61.equal (Shamir.lagrange_at_zero indices) pairwise);
  ]

let test_shamir_basic () =
  let secret = Gf61.of_int 123456789 in
  let shares =
    Shamir.split ~secret ~threshold:3 ~shares:5 ~rand:(mk_rng 42)
  in
  Alcotest.(check int) "5 shares" 5 (Array.length shares);
  (* All 5, first 3, last 3 all reconstruct. *)
  let all = Array.to_list shares in
  Alcotest.(check bool) "all" true (Gf61.equal (Shamir.reconstruct all) secret);
  let first3 = [ shares.(0); shares.(1); shares.(2) ] in
  Alcotest.(check bool) "first 3" true
    (Gf61.equal (Shamir.reconstruct first3) secret);
  let last3 = [ shares.(2); shares.(3); shares.(4) ] in
  Alcotest.(check bool) "last 3" true
    (Gf61.equal (Shamir.reconstruct last3) secret);
  (* Fewer than threshold gives (with overwhelming probability) garbage. *)
  let two = [ shares.(0); shares.(1) ] in
  Alcotest.(check bool) "2 shares do not reconstruct" false
    (Gf61.equal (Shamir.reconstruct two) secret)

let test_shamir_validation () =
  let secret = Gf61.of_int 7 in
  Alcotest.check_raises "threshold > shares"
    (Invalid_argument "Shamir.split") (fun () ->
      ignore (Shamir.split ~secret ~threshold:4 ~shares:3 ~rand:(mk_rng 1)));
  let shares = Shamir.split ~secret ~threshold:2 ~shares:3 ~rand:(mk_rng 2) in
  Alcotest.check_raises "duplicate indices"
    (Invalid_argument "Shamir: duplicate share indices") (fun () ->
      ignore (Shamir.reconstruct [ shares.(0); shares.(0) ]));
  Alcotest.check_raises "empty" (Invalid_argument "Shamir: no shares")
    (fun () -> ignore (Shamir.reconstruct []))

(* ------------------------------------------------------------------ *)
(* Threshold signatures                                                *)

let test_threshold_roundtrip () =
  let scheme, signers = Threshold.setup ~n:7 ~threshold:5 ~seed:"s" in
  let msg = "propose|42" in
  let shares =
    Array.to_list signers |> List.map (fun s -> Threshold.sign_share s msg)
  in
  (* Exactly threshold shares combine and verify. *)
  let five = List.filteri (fun i _ -> i < 5) shares in
  (match Threshold.combine scheme ~msg five with
  | Ok sigma ->
      Alcotest.(check bool) "verifies" true (Threshold.verify scheme ~msg sigma);
      Alcotest.(check bool) "wrong msg fails" false
        (Threshold.verify scheme ~msg:"other" sigma);
      (* Any other quorum yields the same signature. *)
      let last_five = List.filteri (fun i _ -> i >= 2) shares in
      (match Threshold.combine scheme ~msg last_five with
      | Ok sigma' ->
          Alcotest.(check string) "deterministic aggregate"
            (Threshold.signature_bytes sigma)
            (Threshold.signature_bytes sigma')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  (* Too few shares are rejected. *)
  (match Threshold.combine scheme ~msg (List.filteri (fun i _ -> i < 4) shares) with
  | Ok _ -> Alcotest.fail "combined with too few shares"
  | Error _ -> ())

let test_threshold_share_verification () =
  let scheme, signers = Threshold.setup ~n:4 ~threshold:3 ~seed:"x" in
  let msg = "m" in
  let good = Threshold.sign_share signers.(0) msg in
  Alcotest.(check bool) "valid share accepted" true
    (Threshold.verify_share scheme ~msg good);
  Alcotest.(check bool) "share bound to message" false
    (Threshold.verify_share scheme ~msg:"other" good);
  let forged = Threshold.forge_share ~index:1 msg in
  Alcotest.(check bool) "forged share rejected" false
    (Threshold.verify_share scheme ~msg forged);
  (* A forged share poisons combination. *)
  let shares = [ good; Threshold.sign_share signers.(2) msg; forged ] in
  (match Threshold.combine scheme ~msg shares with
  | Ok _ -> Alcotest.fail "combined with forged share"
  | Error _ -> ());
  (* Duplicate signers rejected. *)
  match Threshold.combine scheme ~msg [ good; good; good ] with
  | Ok _ -> Alcotest.fail "combined duplicates"
  | Error _ -> ()

let test_threshold_serialization () =
  let scheme, signers = Threshold.setup ~n:4 ~threshold:3 ~seed:"y" in
  let msg = "serialize me" in
  let shares =
    Array.to_list signers |> List.map (fun s -> Threshold.sign_share s msg)
  in
  match Threshold.combine scheme ~msg (List.filteri (fun i _ -> i < 3) shares) with
  | Error e -> Alcotest.fail e
  | Ok sigma -> (
      let bytes = Threshold.signature_bytes sigma in
      Alcotest.(check int) "8 bytes" 8 (String.length bytes);
      match Threshold.signature_of_bytes bytes with
      | Some sigma' ->
          Alcotest.(check bool) "roundtrip verifies" true
            (Threshold.verify scheme ~msg sigma');
          Alcotest.(check bool) "garbage rejected" true
            (Threshold.signature_of_bytes "toolong--" = None)
      | None -> Alcotest.fail "deserialization failed")

(* The signature Shamir reconstructs from the shares' field elements,
   serialized like [Threshold.signature_bytes]. *)
let reconstructed_bytes shares =
  let sigma =
    Shamir.reconstruct
      (List.map
         (fun s ->
           { Shamir.index = Threshold.share_index s + 1;
             value = Threshold.share_value s })
         shares)
  in
  let v = Gf61.to_int sigma in
  String.init 8 (fun i -> Char.chr ((v lsr ((7 - i) * 8)) land 0xFF))

let combined_bytes scheme ~msg shares =
  match Threshold.combine scheme ~msg shares with
  | Ok sigma -> Threshold.signature_bytes sigma
  | Error e -> Alcotest.fail e

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map (List.cons x) (permutations (List.filter (( <> ) x) l)))
        l

let test_threshold_combine_matches_shamir () =
  let msg = "combine" in
  let setup () = Threshold.setup ~n:4 ~threshold:3 ~seed:"c" in
  let warm, signers = setup () in
  let share i = Threshold.sign_share signers.(i) msg in
  List.iter
    (fun left_out ->
      let subset = List.filter (( <> ) left_out) [ 0; 1; 2; 3 ] in
      List.iter
        (fun order ->
          let shares = List.map share order in
          let expected = reconstructed_bytes shares in
          let cold, _ = setup () in
          Alcotest.(check int) "cold table" 0 (Threshold.cached_inverses cold);
          Alcotest.(check string) "cold" expected (combined_bytes cold ~msg shares);
          Alcotest.(check string) "warm" expected (combined_bytes warm ~msg shares))
        (permutations subset))
    [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "table within n^2" true
    (Threshold.cached_inverses warm <= 4 * 4)

let threshold_qcheck =
  [
    QCheck.Test.make ~name:"5-of-7 combine matches Shamir cold and warm"
      ~count:300
      QCheck.(pair int small_string)
      (fun (seed, msg) ->
        let scheme, signers = Threshold.setup ~n:7 ~threshold:5 ~seed:"c7" in
        let shares =
          List.filteri (fun i _ -> i < 5) (shuffled 7 seed)
          |> List.map (fun i -> Threshold.sign_share signers.(i) msg)
        in
        let expected = reconstructed_bytes shares in
        combined_bytes scheme ~msg shares = expected
        && combined_bytes scheme ~msg shares = expected);
    QCheck.Test.make ~name:"inverse table never exceeds n^2 entries" ~count:100
      QCheck.(pair (int_range 1 20) (small_list int))
      (fun (n, seeds) ->
        let threshold = 1 + ((n - 1) / 2) in
        let scheme, signers = Threshold.setup ~n ~threshold ~seed:"t" in
        List.for_all
          (fun seed ->
            let shares =
              List.filteri (fun i _ -> i < threshold) (shuffled n seed)
              |> List.map (fun i -> Threshold.sign_share signers.(i) "m")
            in
            Result.is_ok (Threshold.combine scheme ~msg:"m" shares)
            && Threshold.cached_inverses scheme <= n * n)
          seeds);
    QCheck.Test.make ~name:"any nf-subset combines to a valid signature"
      ~count:50
      (QCheck.pair (QCheck.int_range 4 10) QCheck.small_string)
      (fun (n, msg) ->
        let threshold = n - ((n - 1) / 3) in
        let scheme, signers = Threshold.setup ~n ~threshold ~seed:"q" in
        let shares =
          Array.to_list signers |> List.map (fun s -> Threshold.sign_share s msg)
        in
        let subset = List.filteri (fun i _ -> i < threshold) shares in
        match Threshold.combine scheme ~msg subset with
        | Ok sigma -> Threshold.verify scheme ~msg sigma
        | Error _ -> false);
    QCheck.Test.make ~name:"random t-of-n share sets combine to master*H(m)"
      ~count:200
      QCheck.(quad (int_range 1 12) (pair small_nat small_nat) int small_string)
      (fun (n, (t_raw, k_raw), seed, msg) ->
        let threshold = 1 + (t_raw mod n) in
        let k = threshold + (k_raw mod (n - threshold + 1)) in
        let scheme, signers = Threshold.setup ~n ~threshold ~seed:"r" in
        let picked = List.filteri (fun i _ -> i < k) (shuffled n seed) in
        let shares = List.map (fun i -> Threshold.sign_share signers.(i) msg) picked in
        (* [verify] is the check sigma = master * H(m). *)
        match Threshold.combine scheme ~msg shares with
        | Ok sigma -> Threshold.verify scheme ~msg sigma
        | Error _ -> false);
    QCheck.Test.make ~name:"one bad share anywhere fails combine" ~count:200
      QCheck.(quad (int_range 2 12) small_nat int small_string)
      (fun (n, bad_raw, seed, msg) ->
        let scheme, signers = Threshold.setup ~n ~threshold:n ~seed:"r" in
        let bad = bad_raw mod n in
        let shares =
          List.map
            (fun i ->
              if i = bad then Threshold.forge_share ~index:i msg
              else Threshold.sign_share signers.(i) msg)
            (shuffled n seed)
        in
        Result.is_error (Threshold.combine scheme ~msg shares));
  ]

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "nist vectors" `Quick test_sha_vectors;
          Alcotest.test_case "million a" `Slow test_sha_million_a;
          Alcotest.test_case "streaming equivalence" `Quick
            test_sha_streaming_equivalence;
        ]
        @ List.map QCheck_alcotest.to_alcotest sha_qcheck );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "truncated" `Quick test_hmac_truncated;
        ] );
      ( "gf61",
        Alcotest.test_case "edge cases" `Quick test_gf_edge_cases
        :: List.map QCheck_alcotest.to_alcotest gf_qcheck );
      ( "shamir",
        [
          Alcotest.test_case "basic" `Quick test_shamir_basic;
          Alcotest.test_case "validation" `Quick test_shamir_validation;
        ]
        @ List.map QCheck_alcotest.to_alcotest shamir_qcheck );
      ( "threshold",
        [
          Alcotest.test_case "roundtrip" `Quick test_threshold_roundtrip;
          Alcotest.test_case "share verification" `Quick
            test_threshold_share_verification;
          Alcotest.test_case "serialization" `Quick test_threshold_serialization;
          Alcotest.test_case "combine matches Shamir, 3-of-4 orders" `Quick
            test_threshold_combine_matches_shamir;
        ]
        @ List.map QCheck_alcotest.to_alcotest threshold_qcheck );
    ]
