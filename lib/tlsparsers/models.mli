(** The nine TLS-library behavioural models (Tables 4, 5, 12, 13 and
    §5 prose).  Each value reproduces the decoding methods, character
    handling, field support and string-rendering quirks the paper
    documents for that library. *)

val pyopenssl : Model.t

val all : Model.t list
(** In the paper's Table 4 column order. *)

val find : string -> Model.t option
