(** Threshold signatures: any [threshold] of [n] signers can jointly produce
    one constant-size signature; fewer cannot.

    The paper uses Boneh–Lynn–Shacham (BLS) threshold signatures to turn
    PBFT's quadratic phases into two linear ones. No pairing library is
    available offline, so this module implements the same *interface and
    combinatorics* with a linear scheme over GF(2^61 - 1): a trusted dealer
    Shamir-shares a master key [K]; signer [i]'s share on message [m] is
    [k_i · H(m)]; Lagrange combination of [threshold] shares yields
    [σ = K · H(m)], checked against the dealer's verification key. Unlike
    BLS this is not publicly verifiable by parties outside the dealer's
    trust domain — acceptable here because all simulated replicas live in
    one process (see DESIGN.md "Substitutions"). Share forgery and
    wrong-message shares are detected, and share/combine/verify costs are
    charged by the simulator's cost model exactly where BLS costs would
    fall. *)

type scheme
(** Public parameters: [n], [threshold], and the verification state. *)

type signer
(** A single signer's key share (private to that replica). *)

type share
(** A signature share on a particular message. *)

type signature
(** A combined threshold signature. *)

val setup : n:int -> threshold:int -> seed:string -> scheme * signer array
(** Trusted-dealer key generation. Deterministic in [seed] (useful for
    reproducible simulations). Returns the public scheme and one signer per
    replica, indexed [0 .. n-1]. *)

val n : scheme -> int
val threshold : scheme -> int

val sign_share : signer -> string -> share
(** [sign_share signer msg] produces signer's share on [msg]. *)

val share_index : share -> int

val share_value : share -> Gf61.t
(** The share's field element: what a signer puts on the wire. *)

val verify_share : scheme -> msg:string -> share -> bool
(** Check one share before combining (the primary does this on every
    SUPPORT message so a byzantine replica cannot poison the aggregate). *)

val combine : scheme -> msg:string -> share list -> (signature, string) result
(** Combine at least [threshold] valid shares from distinct signers into a
    signature on [msg]. Returns [Error _] if there are too few shares,
    duplicate signers, or any invalid share. The Lagrange coefficients
    take their denominators' inverses from a per-scheme table (see
    {!cached_inverses}), so the result equals [Shamir.reconstruct] over the
    same shares without a field inversion once the table is warm. *)

val cached_inverses : scheme -> int
(** How many field inverses {!combine}'s Lagrange table holds: the table
    fills on demand with 1/d for the signer-point differences [0 < d < n]
    it meets, so it never exceeds [n - 1] entries, whatever the number of
    distinct signer sets. *)

val verify : scheme -> msg:string -> signature -> bool
(** Verify a combined signature against the scheme. *)

val signature_bytes : signature -> string
(** Serialized form (8 bytes), e.g. for embedding in ledger blocks. *)

val signature_of_bytes : string -> signature option
(** Inverse of {!signature_bytes}; [None] if malformed. *)

val forge_share : index:int -> string -> share
(** A byzantine replica's best effort at forging some other signer's share
    without the key material: structurally well-formed but cryptographically
    junk. Exposed for fault-injection tests, which assert it is rejected. *)
