(** Decoding-method inference (paper §3.2): feed crafted payloads to a
    parsing API, observe the returned strings, and determine which of
    the five decoding methods and three character-handling modes the
    implementation uses. *)

type method_ = M_ascii | M_latin1 | M_utf8 | M_ucs2 | M_utf16

val method_name : method_ -> string

type handling =
  | H_none
  | H_replace_fffd       (** substitute U+FFFD *)
  | H_replace_dot        (** substitute "." (PyOpenSSL CRLDP) *)
  | H_skip               (** drop undecodable bytes (truncation) *)
  | H_hex_escape         (** expand undecodable bytes to [\xNN] *)
  | H_escape_nonprintable  (** expand every non-printable byte (OpenSSL) *)
  | H_bytewise_escape    (** byte-wise read dropping NULs, escaping *)
  | H_bytewise_replace   (** byte-wise read dropping NULs, U+FFFD *)

type observation = { raw : string; output : string option }

val infer : observation list -> (method_ * handling) option
(** [infer obs] is the first candidate consistent with every
    observation, or [None] (no output at all, or no consistent
    candidate). *)

type verdict =
  | Compliant
  | Over_tolerant
  | Incompatible
  | Modified
  | Unsupported
  | Crashing of string
      (** the model raised on probe inputs; the payload is the most
          frequent exception constructor (crashes are excluded from
          method inference per §3.2) *)

val verdict_symbol : verdict -> string
(** The paper's cell symbols: [o] compliant, [O/] over-tolerant, [X]
    incompatible, [(.)] modified, [-] unsupported. *)

val classify :
  declared:Asn1.Str_type.t -> (method_ * handling) option -> all_none:bool -> verdict list
(** [classify ~declared inferred ~all_none] maps an inference result to
    the Table 4 verdict set for a field declared as [declared].
    [all_none] marks APIs that produced no output for any probe. *)
