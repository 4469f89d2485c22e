(** SHA-256 (FIPS 180-4), implemented from scratch.

    The paper's ResilientDB fabric uses SHA256 for message digests and for
    hash-chaining ledger blocks; this module provides the same primitive for
    our {!Poe_ledger} and for HMAC-based authentication ({!Hmac}).

    The compression function is one portable C99 kernel
    ([sha256_stubs.c]), called without allocating; padding, streaming and
    midstates stay in OCaml, and so does the per-block
    [crypto.sha256_blocks] counter.

    Digests are returned as raw 32-byte strings; use {!to_hex} for display. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit

val feed_int : ctx -> int -> unit
(** [feed_int ctx n] feeds the bytes of [string_of_int n] (negatives and
    [min_int] included) without building the string. *)

val feed_hex : ctx -> string -> unit
(** [feed_hex ctx s] feeds the bytes of [to_hex s] without building the
    string. *)

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot hash of a full message: 32 raw bytes. *)

(** {1 Midstates}

    A midstate is the hash chain value after absorbing exactly one 64-byte
    block. HMAC's inner and outer padded key blocks fill one block each,
    so {!Hmac} compresses each with {!midstate_of_block} and streams the
    rest of the message through {!resume}. *)

type midstate

val midstate_of_block : string -> midstate
(** Chain value after hashing the given block (must be exactly 64 bytes)
    from the initial state. *)

val resume : midstate -> ctx
(** Fresh streaming context positioned just after that first block (64
    bytes already counted toward the padded length). *)

val to_hex : string -> string
(** Lowercase hexadecimal rendering of a raw digest (or any string). *)

val digest_size : int
(** 32. *)
