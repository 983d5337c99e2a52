(** Browser certificate-rendering models (Appendix F.1, Table 14):
    how Gecko, WebKit and Blink engines display Unicode certificate
    fields in certificate viewers and warning pages, and the spoofing
    consequences. *)

type t = {
  name : string;
  c0_indicator : [ `Raw | `Picture | `Url_encode ];
      (** Firefox renders control characters raw; Safari marks them with
          control pictures; Chromium percent-encodes. *)
  warning_identity : [ `San_dns | `Subject_fields | `None ];
      (** which certificate fields feed the warning page *)
  checks_asn1_ranges : bool;
      (** whether the viewer flags out-of-range ASN.1 characters *)
}

val firefox : t
val safari : t
val chromium : t
val all : t list

val render_field : t -> string -> string
(** [render_field b text] is what the user sees in the certificate
    viewer for a UTF-8 field value: the C0 policy applied, invisible
    layout characters dropped, and bidirectional overrides applied
    visually (RLO segments render reversed). *)

val display_hostname : t -> string -> string
(** [display_hostname b domain] applies the IDN display policy to an
    (ASCII, possibly punycoded) domain: labels that decode to
    single-script, IDNA-clean text are shown in Unicode; mixed-script
    or invalid labels stay in their A-label form — the policy whose
    gaps [G1.2]/[P1.3] exploit (homographs inside one script still
    display in Unicode). *)

type row = {
  browser : string;
  c0_c1_visible : bool;
  layout_visible : bool;
  homograph_feasible : bool;
  incorrect_substitution : bool;
  flawed_range_check : bool;
  warning_spoofable : bool;
}

val table14 : unit -> row list
(** Probe the three engines with crafted Unicerts.  A table generator
    for Table 14: the test suite checks its rows against the paper. *)

type spoof = { browser : string; crafted : string; displayed : string; spoofed : bool }

val warning_spoof_demo : unit -> spoof list
(** The "www.(RLO)lapyap(PDF).com" → "www.paypal.com" demonstration of
    Figure 7. *)

val render : Format.formatter -> unit
