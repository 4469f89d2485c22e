(** HMAC-SHA256 (RFC 2104), the authenticator underlying our MAC channels.

    The paper authenticates replica-to-replica traffic with CMAC+AES and
    client messages with ED25519. Neither primitive is available offline, so
    both roles are filled by HMAC-SHA256 over pairwise (respectively
    per-identity) keys — see DESIGN.md "Substitutions". The security-relevant
    interface is identical: fixed-size tags, keyed verification. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key]. *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-time comparison of the expected tag against [tag]. *)

val truncated : key:string -> string -> int -> string
(** [truncated ~key msg n] is the first [n] bytes of the tag; the paper's
    MAC authenticators are short. [n] must be in [1, 32]. *)
