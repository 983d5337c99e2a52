(** IDNA2008 (RFC 5890–5892) label processing and validation.

    The derived code-point property is approximated with an explicit
    DISALLOWED classification (controls, format and layout characters,
    whitespace variants, punctuation/symbol blocks, presentation forms,
    private use, noncharacters) — the classes whose misuse the paper's
    T1/T2 findings hinge on — while letters and digits of natural
    scripts are PVALID and uppercase ASCII is MAPPED.  DESIGN.md
    documents the approximation. *)

module Punycode : module type of Punycode
(** RFC 3492 Punycode codec. *)

module Dns : module type of Dns
(** RFC 1034/5890 DNS name syntax. *)

type property = Pvalid | Disallowed | Mapped of Unicode.Cp.t

val property : Unicode.Cp.t -> property
(** [property cp] is the (approximated) IDNA2008 derived property.
    BMP lookups hit a flat direct-index table; astral code points are
    classified on the fly. *)

type issue =
  | Malformed_punycode of string     (** A-label that cannot decode. *)
  | Unpermitted_char of Unicode.Cp.t (** DISALLOWED code point. *)
  | Not_nfc                          (** U-label not NFC-normalized. *)
  | Leading_combining_mark
  | Bad_hyphen34                     (** "--" in positions 3–4 without xn. *)
  | Leading_hyphen
  | Trailing_hyphen
  | Bidi_violation                   (** RTL/LTR mixing or bidi controls. *)
  | Empty_label
  | Encoded_label_too_long
  | Non_canonical_alabel             (** decode-then-re-encode mismatch. *)

val pp_issue : Format.formatter -> issue -> unit

val ulabel_issues : Unicode.Cp.t array -> issue list
(** [ulabel_issues cps] validates a U-label. *)

val alabel_issues : string -> issue list
(** [alabel_issues l] validates an A-label (with ["xn--"] prefix): it
    must decode, round-trip, and yield a valid U-label. *)

val label_to_ascii : string -> (string, issue list) result
(** [label_to_ascii label] maps and validates a UTF-8 label and
    produces its ASCII form (the label itself if pure ASCII, otherwise
    an ["xn--"] A-label). *)

val label_to_unicode : string -> (string, issue list) result
(** [label_to_unicode l] decodes an A-label to UTF-8 (identity for
    plain ASCII labels).  The result may still be invalid — pair with
    {!alabel_issues} for validation. *)

val to_ascii : string -> (string, (string * issue list) list) result
(** [to_ascii domain] converts every label of a UTF-8 domain name;
    errors list the offending labels. *)

val to_unicode : string -> string
(** [to_unicode domain] best-effort display conversion: labels that
    fail to decode are kept in their A-label form (mirroring what user
    agents do). *)

val domain_issues : string -> (string * issue list) list
(** [domain_issues domain] validates each label of an (ASCII, possibly
    punycoded) domain, e.g. a certificate DNSName: A-labels are fully
    validated, NR-LDH labels checked for syntax.  Returns per-label
    issues; empty means IDNA-clean. *)

val is_idn : string -> bool
(** [is_idn domain] is [true] iff some label is an A-label candidate
    (["xn--"]) or contains non-ASCII. *)
