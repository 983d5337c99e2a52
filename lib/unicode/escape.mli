(** Generic escaping and display helpers.

    The DN-specific escaping rules of RFC 1779/2253/4514 live in the
    [x509] library; this module provides the byte- and code-point-level
    primitives shared by the parser models and the browser rendering
    models. *)

val hex_escape_nonprintable : string -> string
(** [hex_escape_nonprintable bytes] replaces every byte outside
    printable ASCII with a literal [\xNN] escape — OpenSSL's
    modified-decoding presentation. *)

val visible_utf8 : string -> string
(** [visible_utf8 s] is the visually rendered form of a UTF-8 string:
    invisible layout characters removed (i.e. what the user perceives,
    used by the spoofing experiments). *)
