(** In-memory key-value table with undo support — the replicas' application
    state machine.

    Mirrors the paper's YCSB table: each replica starts from an identical
    copy and applies transactions deterministically in sequence order.
    Because PoE executes *speculatively*, execution must be revertible; every
    mutating apply returns an {!undo} record that restores the prior state
    (used by the view-change algorithm's rollback step, Fig. 5 line 14). *)

type t

type op =
  | Read of string
  | Update of string * string
  | Insert of string * string
  | Delete of string

type result =
  | Value of string     (** successful read *)
  | Missing             (** read/delete of an absent key *)
  | Ok                  (** successful write *)

type undo
(** Inverse of one applied op. *)

val create : unit -> t

val load_ycsb : t -> records:int -> payload_bytes:int -> unit
(** Populate with [records] rows [user0 .. user{records-1}], each holding a
    deterministic payload of [payload_bytes] bytes (the paper uses half a
    million rows). *)

val size : t -> int

val get : t -> string -> string option

val copy : t -> t
(** Independent clone (used to reconstruct checkpoint states). *)

val rows : t -> (string * string) list
(** All rows, unordered (snapshot serialization). *)

val load_rows : t -> (string * string) list -> unit
(** Replace the whole table with the given rows (snapshot installation). *)

val apply : t -> op -> result * undo
(** Execute one operation, returning its result and the undo record. *)

val revert : t -> undo -> unit
(** Undo a previously applied op. Undos must be replayed in reverse
    application order (LIFO); {!Undo_log} enforces this. *)

val digest_hint : t -> int
(** Cheap structural fingerprint (not cryptographic): number of rows XOR a
    running content hash, useful in tests to compare replica states. *)

val encode_op : op -> string
(** Compact wire encoding: a 1-char opcode, then each field as its decimal
    length, [':'] and its bytes. *)

val feed_op : Poe_crypto.Sha256.ctx -> op -> unit
(** Feed the bytes of [encode_op op] into a hash without building the
    string (batch digests). *)

val decode_op : string -> op option

val op_key : op -> string

val pp_op : Format.formatter -> op -> unit
val result_to_string : result -> string
(** ["value(N bytes)"], ["missing"] or ["ok"]: what a replica's result
    digest hashes for each applied transaction. *)

val result_equal : result -> result -> bool
