(** Unicode Normalization Form C (canonical composition).

    RFC 5280 (via RFC 8399/9549) requires UTF8String attribute values to
    be normalized to NFC; the paper's T2 ("Bad Normalization") lints
    check exactly this.  This module implements the standard NFC
    algorithm — recursive canonical decomposition, canonical ordering by
    combining class, then canonical composition, with algorithmic
    Hangul — over an embedded canonical-mapping table covering the
    Latin-1 Supplement, Latin Extended-A, Greek and Coptic, and Cyrillic
    repertoires plus the canonical singletons (Angstrom, Kelvin, Ohm
    signs and the Greek question mark/ano teleia).  Code points outside
    the table are treated as NFC-stable starters, which is correct for
    the unaccented scripts (CJK, Hangul precomposed handled
    algorithmically, ASCII) and documented as the table's coverage
    boundary in DESIGN.md. *)

val combining_class : Cp.t -> int
(** [combining_class cp] is the canonical combining class (0 for
    starters and for code points outside the embedded table).  BMP
    lookups hit a flat byte table. *)

val decompose : Cp.t array -> Cp.t array
(** [decompose cps] is the full canonical decomposition (NFD) with
    canonical ordering applied. *)

val to_nfc : Cp.t array -> Cp.t array
(** [to_nfc cps] normalizes to NFC. *)

val is_nfc : Cp.t array -> bool
(** [is_nfc cps] is [true] iff [cps] is already in NFC, i.e.
    [to_nfc cps = cps].  When every code point is in a flat BMP table
    of stable code points (combining class 0, never composed with a
    predecessor, own NFC) it answers without normalizing. *)

val utf8_to_nfc : string -> string
(** [utf8_to_nfc s] decodes UTF-8 (replacing malformed sequences),
    normalizes, and re-encodes. *)

val utf8_is_nfc : string -> bool
(** [utf8_is_nfc s] is [true] iff well-formed [s] is NFC-normalized. *)
