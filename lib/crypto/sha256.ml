(* SHA-256 per FIPS 180-4. The compression function is one C99 kernel
   (sha256_stubs.c); padding, streaming and midstates live here. The 8
   chain words are kept in an int array, each masked to 32 bits.

   The hot path is allocation-free: [feed] compresses whole 64-byte blocks
   straight out of the input string (no staging buffer), [feed_int] and
   [feed_hex] write their characters into the block buffer instead of
   building a string, and [finalize] pads in place inside that buffer. *)

let digest_size = 32

type ctx = {
  h : int array;              (* 8 chain words *)
  buf : Bytes.t;              (* 64-byte block buffer *)
  mutable buf_len : int;      (* bytes currently in [buf] *)
  mutable total : int;        (* total message bytes fed *)
}

let iv = [|
  0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
  0x1f83d9ab; 0x5be0cd19;
|]

(* A fresh context continuing from chain value [h] after [total] bytes. *)
let start h total =
  { h = Array.copy h; buf = Bytes.create 64; buf_len = 0; total }

let init () = start iv 0

external compress_kernel : int array -> string -> int -> unit
  = "poe_sha256_compress"
[@@noalloc]

(* Fold the 64 bytes of [s] at [off] into [h]. The block counter stays on
   this side of the kernel, so it counts every block exactly. *)
let compress h s off =
  Poe_prof.Prof.(bump ix_sha256_blocks);
  compress_kernel h s off

let compress_buf ctx =
  compress ctx.h (Bytes.unsafe_to_string ctx.buf) 0;
  ctx.buf_len <- 0

let feed ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then compress_buf ctx
  end;
  (* Whole blocks straight from the input — no staging copy. *)
  while len - !pos >= 64 do
    compress ctx.h s !pos;
    pos := !pos + 64
  done;
  (* Stash the tail. *)
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len rest;
    ctx.buf_len <- ctx.buf_len + rest
  end

let feed_char ctx c =
  Bytes.unsafe_set ctx.buf ctx.buf_len c;
  ctx.total <- ctx.total + 1;
  ctx.buf_len <- ctx.buf_len + 1;
  if ctx.buf_len = 64 then compress_buf ctx

(* The decimal digits of [-n] for [n <= 0], most significant first.
   Working on the non-positive side reaches [min_int] without overflow. *)
let rec feed_digits ctx n =
  if n <= -10 then feed_digits ctx (n / 10);
  feed_char ctx (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let feed_int ctx n =
  if n < 0 then begin
    feed_char ctx '-';
    feed_digits ctx n
  end
  else feed_digits ctx (-n)

let hex_chars = "0123456789abcdef"

let feed_hex ctx s =
  for i = 0 to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    feed_char ctx (String.unsafe_get hex_chars (c lsr 4));
    feed_char ctx (String.unsafe_get hex_chars (c land 0xF))
  done

let finalize ctx =
  let bits = ctx.total * 8 in
  (* Pad in place inside [ctx.buf]: 0x80, zeros, and the 64-bit big-endian
     bit length in the last 8 bytes of the final block. *)
  let len = ctx.buf_len in
  Bytes.set ctx.buf len '\x80';
  if len + 1 > 56 then begin
    Bytes.fill ctx.buf (len + 1) (64 - len - 1) '\000';
    compress_buf ctx;
    Bytes.fill ctx.buf 0 56 '\000'
  end
  else Bytes.fill ctx.buf (len + 1) (56 - len - 1) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.buf (56 + i) (Char.chr ((bits lsr ((7 - i) * 8)) land 0xFF))
  done;
  compress_buf ctx;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

(* Midstates: the chain value after absorbing exactly one 64-byte block.
   HMAC's inner/outer padded key blocks are fixed per key, so callers can
   compress them once and resume per message. *)

type midstate = int array

let midstate_of_block block =
  if String.length block <> 64 then
    invalid_arg "Sha256.midstate_of_block: block must be 64 bytes";
  let h = Array.copy iv in
  compress h block 0;
  h

let resume ms = start ms 64

let to_hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_chars (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_chars (c land 0xF))
  done;
  Bytes.unsafe_to_string out
