(** Visually confusable characters (homographs).

    Browsers and CT monitors in the paper fail to detect Cyrillic/Greek
    lookalikes in certificate fields (Appendix F.1 [G1.2], §6.1 [P1.3]).
    This module implements a skeleton transform in the spirit of UTS #39:
    each code point maps to its primary ASCII lookalike, so two strings
    are confusable iff their skeletons are equal. *)

val lookalike : Cp.t -> Cp.t option
(** [lookalike cp] is the ASCII (or canonical) code point [cp] visually
    resembles, if it is a known confusable.  BMP lookups hit a flat
    direct-index table; astral lookups fall back to the hashtable. *)

val lookalike_hashed : Cp.t -> Cp.t option
(** The hashtable reference implementation of {!lookalike}; the flat
    BMP table is generated from it and tested against it
    exhaustively.  Exported only as that test's oracle. *)

val skeleton : Cp.t array -> Cp.t array
(** [skeleton cps] maps every confusable to its lookalike, lowercases
    ASCII, and drops invisible characters, yielding a comparison key. *)

val skeleton_hashed : Cp.t array -> Cp.t array
(** {!skeleton} computed through {!lookalike_hashed} — the reference
    path for the equivalence tests, exported only as their oracle. *)

val utf8_skeleton : string -> string
(** [utf8_skeleton s] is {!skeleton} over a UTF-8 string. *)

val confusable : string -> string -> bool
(** [confusable a b] is [true] iff the two UTF-8 strings have equal
    skeletons but different NFC forms — i.e. they look the same without
    being canonically the same. *)

val equivalent_substitution : Cp.t -> Cp.t option
(** [equivalent_substitution cp] models the browser character
    substitution policy the paper criticizes: e.g. the Greek question
    mark U+037E is replaced by a semicolon U+003B rather than the
    visually faithful Latin question mark (Table 14, [G1.2]). *)
