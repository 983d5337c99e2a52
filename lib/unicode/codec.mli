(** Character encoding codecs.

    Implements the five decoding methods the paper infers in TLS
    libraries (§3.2): ASCII, ISO-8859-1, UTF-8, UCS-2 and UTF-16, plus
    the UCS-4 encoding needed for ASN.1 [UniversalString].  Decoders are
    parameterized by an error policy so the "modified decoding"
    behaviours of real libraries (replacement characters, hex escapes)
    can be modelled faithfully. *)

type encoding =
  | Ascii        (** 7-bit US-ASCII; bytes above [0x7F] are errors. *)
  | Iso8859_1    (** Latin-1: each byte maps to the same code point. *)
  | Utf8         (** UTF-8 with strict well-formedness checks. *)
  | Ucs2         (** Big-endian 2-byte units, no surrogate pairing. *)
  | Utf16be      (** Big-endian UTF-16 with surrogate pairing. *)
  | Ucs4         (** Big-endian 4-byte units (ISO 10646 UCS-4). *)

type policy =
  | Strict                (** Fail on the first undecodable sequence. *)
  | Replace of Cp.t       (** Substitute a replacement code point. *)
  | Skip                  (** Drop undecodable bytes silently. *)
  | Escape_hex            (** Expand bad bytes to literal [\xNN] text. *)

type error = { offset : int; message : string }
(** A decoding or encoding failure: byte [offset] into the input and a
    diagnostic [message]. *)

val pp_error : Format.formatter -> error -> unit

val decode : ?policy:policy -> encoding -> string -> (Cp.t array, error) result
(** [decode ~policy enc bytes] decodes [bytes] according to [enc].
    Under [Strict] (the default) the first malformed sequence yields
    [Error]; other policies always succeed. *)

val decode_exn : ?policy:policy -> encoding -> string -> Cp.t array
(** Like {!decode} but raises [Invalid_argument] on error. *)

val encode : encoding -> Cp.t array -> (string, error) result
(** [encode enc cps] serializes [cps]; fails on code points that the
    encoding cannot represent (e.g. non-ASCII under [Ascii], non-BMP
    under [Ucs2]). *)

val encode_exn : encoding -> Cp.t array -> string
(** Like {!encode} but raises [Invalid_argument] on error. *)

val utf8_of_cps : Cp.t array -> string
(** [utf8_of_cps cps] encodes as UTF-8; surrogates and out-of-range
    values are encoded as U+FFFD. *)

val cps_of_utf8 : string -> Cp.t array
(** [cps_of_utf8 s] decodes UTF-8 replacing malformed input with
    U+FFFD (never fails). *)

val cps_of_latin1 : string -> Cp.t array
(** [cps_of_latin1 s] maps every byte to its code point. *)

val well_formed_utf8 : string -> bool
(** [well_formed_utf8 s] checks strict UTF-8 well-formedness. *)
