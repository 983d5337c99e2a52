(** Character classification used throughout the Unicert analysis.

    These predicates cover the categories the paper reasons about:
    C0/C1 control codes, invisible layout/format controls, bidirectional
    controls, whitespace variants, and the per-ASN.1-string-type
    character sets of Table 8. *)

val is_c0_control : Cp.t -> bool
(** [is_c0_control cp] — [U+0000 .. U+001F]. *)

val is_del : Cp.t -> bool
(** [is_del cp] — [U+007F]. *)

val is_c1_control : Cp.t -> bool
(** [is_c1_control cp] — [U+0080 .. U+009F]. *)

val is_control : Cp.t -> bool
(** [is_control cp] — C0, DEL, or C1. *)

val is_layout_control : Cp.t -> bool
(** [is_layout_control cp] — invisible layout/format controls of the
    General Punctuation block (ZWSP, ZWNJ, ZWJ, directional marks and
    embeddings, word joiner, invisible operators, deprecated format
    characters, line/paragraph separators). *)

val is_bidi_control : Cp.t -> bool
(** [is_bidi_control cp] — the Unicode [Bidi_Control] characters
    (U+061C, U+200E, U+200F, U+202A–U+202E, U+2066–U+2069). *)

val is_format : Cp.t -> bool
(** [is_format cp] — general-category-Cf approximation: soft hyphen,
    Arabic number signs, zero-width and directional characters, word
    joiners, interlinear annotation, BOM, tags and variation selectors
    supplement. *)

val is_whitespace : Cp.t -> bool
(** [is_whitespace cp] — Unicode [White_Space] property. *)

val is_nonascii_whitespace : Cp.t -> bool
(** [is_nonascii_whitespace cp] — whitespace beyond U+0020 and the
    ASCII controls, i.e. the lookalike spaces of Table 3 (NBSP,
    ideographic space, en/em spaces, …). *)

val is_invisible : Cp.t -> bool
(** [is_invisible cp] — renders with no visible glyph: zero-width and
    layout controls plus non-ASCII whitespace. *)

val is_printable_string_char : Cp.t -> bool
(** [is_printable_string_char cp] — ASN.1 PrintableString repertoire:
    [A-Za-z0-9], space, and [' ( ) + , - . / : = ?]. *)

val is_ia5_char : Cp.t -> bool
(** [is_ia5_char cp] — International Alphabet 5 (7-bit, [<= 0x7F]). *)

val is_visible_string_char : Cp.t -> bool
(** [is_visible_string_char cp] — printable ASCII [0x20 .. 0x7E]. *)

val is_numeric_string_char : Cp.t -> bool
(** [is_numeric_string_char cp] — digits and space. *)

val is_teletex_char : Cp.t -> bool
(** [is_teletex_char cp] — pragmatic T.61 repertoire model: graphic
    ASCII plus the Latin-1 graphic range (T.61's primary and
    supplementary sets largely coincide with it). *)

val is_ldh : Cp.t -> bool
(** [is_ldh cp] — letter/digit/hyphen, the DNSName alphabet
    [a-zA-Z0-9-]. *)

val is_noncharacter : Cp.t -> bool
(** [is_noncharacter cp] — the 66 Unicode noncharacters
    (U+FDD0–U+FDEF and the plane-final [xxFFFE]/[xxFFFF] pairs). *)

val is_ascii_upper : Cp.t -> bool
val is_ascii_lower : Cp.t -> bool
val is_ascii_digit : Cp.t -> bool
val is_ascii_letter : Cp.t -> bool

val ascii_lowercase : Cp.t -> Cp.t
(** [ascii_lowercase cp] lowercases [A-Z] and leaves everything else
    untouched. *)

(** {2 Property bitmask}

    One flat-table load answers every class membership question the
    lints ask.  For BMP code points {!mask} indexes a precomputed
    65536-entry array; astral code points are computed on the fly from
    the reference range chains (rare in certificate strings). *)

val m_c0 : int
val m_del : int
val m_bidi : int
val m_surrogate : int
val m_noncharacter : int
val m_replacement : int

val m_nonascii : int
(** Set for every code point above U+007F. *)

val m_not_printable : int
(** Set when the code point is {e outside} the PrintableString
    repertoire (negated so the mask of plain ASCII letters is 0). *)

val m_not_visible : int
val m_not_numeric : int

val m_control : int
(** [m_c0 lor m_del lor m_c1]. *)

val m_invisible : int
(** [m_layout lor m_nonascii_ws]. *)

val mask : Cp.t -> int
(** [mask cp] is the property bitmask of [cp]. *)

val compute_mask : Cp.t -> int
(** The interval-chain computation the flat BMP table is generated
    from.  Exposed as the oracle for the exhaustive equivalence test;
    use {!mask} everywhere else. *)
