(** Rendering of every evaluation table and figure from a completed
    {!Pipeline} run.  Each function prints paper-shaped rows so report
    output can be compared side by side with the publication. *)

val figure2 : Format.formatter -> Pipeline.t -> unit
(** Issuance trend per year: all / trusted / alive Unicerts and
    noncompliant Unicerts. *)

val table1 : Format.formatter -> Pipeline.t -> unit
(** Noncompliance taxonomy overview. *)

val table2 : Format.formatter -> Pipeline.t -> unit
(** Top 10 issuer organizations by noncompliant Unicerts. *)

val figure3 : Format.formatter -> Pipeline.t -> unit
(** Validity-period CDF per certificate class at selected quantiles. *)

val figure4 : Format.formatter -> Pipeline.t -> unit
(** Internationalized-content field heat map (issuers over 0.1% of the
    corpus). *)

val table11 : Format.formatter -> Pipeline.t -> unit
(** Top 25 lints by noncompliant certificates. *)

val section51 : Format.formatter -> Pipeline.t -> unit
(** Encoding-error impact scan with chain verification. *)

val ablations : Format.formatter -> Pipeline.t -> unit
(** Effective-date gating and new-lint contributions. *)

val summary : Format.formatter -> Pipeline.t -> unit
(** Headline numbers (abstract/§4 claims) vs the paper's values. *)

val robustness : Format.formatter -> Pipeline.t -> unit
(** Fault accounting: error counts by class, quarantined certificates,
    degraded lints, resume point, abort reason.  Prints {e nothing} on
    a clean run so clean-corpus reports stay byte-identical to builds
    without the fault layer. *)

val coverage : Format.formatter -> Pipeline.t -> unit
(** Per-log fetch coverage with a one-line
    ["degraded: N/M logs, X% entries"] headline (or ["complete: ..."]
    when every log delivered fully).  Prints {e nothing} for a
    generate-sourced run. *)

val all : Format.formatter -> Pipeline.t -> unit
(** Everything above in paper order. *)
