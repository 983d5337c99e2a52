(** The 95 constraint rules as a structured catalogue — the executable
    counterpart of the paper's RFCGPT extraction step (§3.1.1,
    Appendix C).  Each rule carries the requirement text, its source
    standard and section citation, and the lint that enforces it;
    {!render_json} emits the structured format the prompt templates of
    Appendix C request. *)

type rule = {
  id : string;             (** ["R001"] … ["R095"] *)
  requirement : string;    (** normative text, condensed *)
  source : Types.source;
  citation : string;       (** section reference within the source *)
  level : Types.level;
  nc_type : Types.nc_type;
  is_new : bool;           (** not covered by pre-existing linters *)
  lint : string;           (** enforcing lint name *)
}

val all : rule list
(** Exactly one rule per registered lint, in registry order. *)

val covering_lint : string -> rule option
(** [covering_lint name] is the rule a lint enforces. *)

val render_json : Format.formatter -> rule -> unit
(** One rule in the Appendix-C structured output shape. *)

val render_catalogue : Format.formatter -> unit
(** The full catalogue. *)
