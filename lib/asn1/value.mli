(** A generic ASN.1 value AST with DER encoding and parsing.

    This AST is the interchange format between the certificate layer,
    the linter, and the parser models: raw content octets are preserved
    for string types so that noncompliant byte sequences survive a
    parse/encode round trip untouched. *)

type t =
  | Boolean of bool
  | Integer of string        (** big-endian two's-complement content octets *)
  | Bit_string of int * string  (** unused-bit count, payload *)
  | Octet_string of string
  | Null
  | Oid of Oid.t
  | Str of Str_type.t * string  (** declared string type, raw content octets *)
  | Utc_time of string          (** raw content, e.g. ["250101000000Z"] *)
  | Generalized_time of string
  | Sequence of t list
  | Set of t list
  | Implicit of int * string    (** context-specific primitive [n], raw *)
  | Explicit of int * t list    (** context-specific constructed [n] *)

type error = { offset : int; reason : string }

val pp_error : Format.formatter -> error -> unit

type config = {
  forbid_nonminimal_length : bool;
      (** Reject BER long-form lengths that DER would shorten. *)
  max_depth : int;  (** Recursion guard for nested constructed values. *)
}

val strict : config
(** [strict] is DER: minimal lengths, depth 64. *)

val lenient : config
(** [lenient] tolerates non-minimal lengths — models permissive
    parsers. *)

val encode : t -> string
(** [encode v] is the DER serialization (SETs are emitted in the order
    given, enabling deliberately non-DER output when modelling broken
    issuers; use {!Writer.set} directly for sorted sets). *)

val decode : ?config:config -> string -> (t, error) result
(** [decode bytes] parses exactly one value spanning all of [bytes]. *)

val decode_prefix : ?config:config -> string -> int -> (t * int, error) result
(** [decode_prefix bytes offset] parses one value at [offset], returning
    it with the offset one past its end. *)

val int_of_integer : t -> int option
(** [int_of_integer v] interprets an [Integer] that fits in an OCaml
    int. *)

val integer_of_int : int -> t

val str_raw : Str_type.t -> string -> t
(** [str_raw st bytes] declares [st] but stores [bytes] verbatim — the
    vehicle for crafting noncompliant values. *)

val pp : Format.formatter -> t -> unit
(** [pp] renders a debugging tree. *)
