(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for Merkle tree hashing in the CT log substrate, the wire and
    store seals, the RSA signature digests and the generator's mock
    HMAC signatures.

    The compression function is a C kernel with two paths: the x86
    SHA extensions (SHA-NI) and a portable C loop, the only path built
    off x86-64.  The path is chosen once, when the module initialises,
    from CPUID alone — no environment variable, flag or build option
    selects it.  Both give the same digests; {!kernel} names the one
    in use. *)

val digest : string -> string
(** [digest msg] is the 32-byte binary digest. *)

val digest_sub : string -> off:int -> len:int -> string
(** [digest_sub s ~off ~len] is [digest (String.sub s off len)]
    without the copy.  @raise Invalid_argument on a range outside
    [s]. *)

val hex : string -> string
(** [hex msg] is the lowercase hex digest. *)

val hex_sub : string -> off:int -> len:int -> string
(** [hex_sub s ~off ~len] is [hex (String.sub s off len)] without the
    copy.  @raise Invalid_argument on a range outside [s]. *)

val to_hex : string -> string
(** [to_hex d] renders a 32-byte binary digest as lowercase hex. *)

val hmac : key:string -> string -> string
(** [hmac ~key msg] is HMAC-SHA-256 (RFC 2104), used by the
    deterministic mock signature scheme of the corpus generator. *)

val kernel : unit -> string
(** ["sha-ni"] or ["portable"]: the compression path this process
    uses. *)

(** {2 Incremental interface} *)

type ctx
(** Streaming digest state. *)

val init : unit -> ctx
val update : ctx -> string -> unit

val update_sub : ctx -> string -> off:int -> len:int -> unit
(** [update_sub ctx s ~off ~len] is [update ctx (String.sub s off len)]
    without the copy.  @raise Invalid_argument on a range outside
    [s]. *)

val final : ctx -> string
(** [final ctx] pads, finishes, and returns the 32-byte digest.
    [ctx] must not be used afterwards. *)

(** {2 Keyed MAC with precomputed midstates} *)

type hmac_key
(** A key with its inner/outer pad compression states precomputed —
    reusing one (as every issuer signing key does) saves two
    compression calls per MAC. *)

val hmac_init : string -> hmac_key

val hmac_with : hmac_key -> string -> string
(** [hmac_with hk msg] equals [hmac ~key msg] for the [hk] derived from
    [key], byte for byte. *)

(**/**)

(** Test support: both compression paths, callable directly.  Each
    takes the eight chaining words, a string, a byte offset and a block
    count, and raises [Invalid_argument] on a bad range. *)
module Private : sig
  val accel_available : bool
  (** Whether this CPU has the SHA-NI path; the kernel-equivalence
      test checks it before comparing the two kernels. *)

  val blocks_portable : int array -> string -> int -> int -> unit
  (** The portable kernel, exported as the oracle for {!blocks_accel}. *)

  val blocks_accel : int array -> string -> int -> int -> unit
  (** @raise Invalid_argument when [accel_available] is false. *)
end
