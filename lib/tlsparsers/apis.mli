(** The tested libraries and APIs of the paper's Appendix E (Tables 12
    and 13) as data: which concrete functions each behavioural model
    stands in for, per field. *)

type t = {
  library : string;       (** matches {!Model.t}[.name] *)
  version : string;
  load : string;          (** certificate-loading entry point *)
  subject : string list;  (** Subject/Issuer parsing APIs (Table 12) *)
  extensions : (Model.field * string) list;
      (** per-extension APIs (Table 13); absent fields are unsupported *)
}

val all : t list

val find : string -> t option

val render : Format.formatter -> unit
(** Print Tables 12/13. *)
