(** The Unicode block table.

    The test-Unicert generator of the paper (§3.2) samples one code
    point from each standard Unicode block, excluding surrogates.  This
    module embeds the block ranges of the Unicode Character Database
    [Blocks.txt] (Unicode 15.0 repertoire). *)

type t = { name : string; first : Cp.t; last : Cp.t }
(** A block: inclusive code-point range and its UCD name. *)

val all : t array
(** [all] is every block, in code-point order. *)

val count : int
(** [count] is [Array.length all]. *)

val find : Cp.t -> t option
(** [find cp] is the block containing [cp], if any (the block table does
    not cover all of the code space).  BMP lookups hit a flat
    direct-index table; astral lookups binary-search the ranges. *)

val find_interval : Cp.t -> t option
(** The binary-search reference implementation of {!find}; the flat BMP
    table is generated from it and tested against it exhaustively. *)
