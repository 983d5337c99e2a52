(** The synthetic Unicert corpus, calibrated to the paper's published
    marginals (DESIGN.md §4): issuer population and volumes (§4.2,
    Table 2), per-issuer noncompliance rates and flaw mixes (§4.3,
    Table 11), trust status at and after issuance, yearly volume curves
    (Figure 2), and validity-period distributions (Figure 3).

    Every generated certificate is a real, signed DER object; the
    linter rediscovers the injected defects from the bytes. *)

type trust = Public | Limited | Untrusted

type issuer = {
  org : string;          (** IssuerOrganizationName *)
  region : string;
  trust_now : trust;     (** Table 2 marker (current status) *)
  trust_at_issuance : trust;
      (** status when issuing (the paper's footnote-3 convention) *)
  volume : float;        (** paper-scale Unicert volume (thousands) *)
  nc_rate : float;       (** noncompliance probability in the first year *)
  nc_decay : float;      (** yearly multiplicative decline of [nc_rate] *)
  idn_share : float;     (** fraction of IDNCerts vs multilingual-text *)
  years : int * int * float;  (** first year, last year, yearly growth *)
  flaw_mix : (Flaws.t * float) list;
  aggregate : bool;
      (** a long-tail bucket rather than a single organization (kept out
          of Table 2's named rows) *)
  keypair : X509.Certificate.keypair;
}

val issuers : issuer list
(** The calibrated population (weights normalized internally). *)

type entry = {
  cert : X509.Certificate.t;
  issued : Asn1.Time.t;
  issuer : issuer;
  flaws : Flaws.t list;  (** injected defects; [] for compliant certs *)
  is_idn : bool;
}

val default_scale : int
(** 60_000 — the corpus size when no [--scale] is given. *)

val generate_at : seed:int -> int -> entry
(** [generate_at ~seed index] is corpus entry [index]: a pure function
    of [(seed, index)] (each index owns a splitmix stream keyed by the
    pair), so any contiguous index range — a shard of a parallel run, a
    checkpoint resume — regenerates byte-identical certificates without
    replaying earlier indices. *)

val issuer_of_org : string -> issuer option
(** Look an issuer up by organization name — rehydrates the issuer
    record when replaying stored analysis rows. *)

val entry_of_cert : X509.Certificate.t -> (entry, Faults.Error.t) result
(** Rebuild an {!entry} from a certificate fetched off a CT log:
    recovers the issuer record via the certificate's
    IssuerOrganizationName and re-derives [issued] / [is_idn] from the
    bytes.  [flaws] is left empty — the linter rediscovers defects from
    the DER, which is all downstream analysis consumes.  [Error] means
    the certificate does not belong to the calibrated corpus. *)

val prewarm : unit -> unit
(** Force the module's lazy state (issuer weights, telemetry handles).
    Call once from the coordinating domain before spawning workers —
    [Lazy.force] is not domain-safe in OCaml 5. *)

val iter : ?scale:int -> seed:int -> (entry -> unit) -> unit
(** [iter ~seed f] streams [scale] corpus entries through [f] without
    materializing the corpus (constant memory). *)

type delivery =
  | Entry of entry
  | Corrupt of { der : string; error : Faults.Error.t }
      (** a mutated DER blob that no longer parses, with the decode
          error it produces *)

val iter_deliveries :
  ?scale:int ->
  ?start:int ->
  ?stop:int ->
  ?mutator:Faults.Mutator.plan ->
  ?drop:bool ->
  seed:int ->
  (int -> delivery -> unit) ->
  unit
(** Fault-aware streaming over indices [start, stop) ([start] defaults
    to 0, [stop] to [scale]).  The callback receives the corpus index.
    With [mutator], indices selected by {!Faults.Mutator.hits} deliver
    [Corrupt] — mutated until the bytes genuinely fail
    [X509.Certificate.parse] (counted in
    [unicert_fault_injected_total{kind}]).  With [drop] those indices
    deliver nothing at all, which yields the clean-subset reference run:
    corruption decisions consume no generator randomness, so the
    surviving entries are byte-identical between the two modes.
    Entries are pure per-index ({!generate_at}), so a sub-range —
    checkpoint resume, a parallel shard — generates only its own
    indices and still yields the same bytes a full pass would. *)

val generate : ?scale:int -> seed:int -> unit -> entry list
(** Materialized variant for small scales. *)

val analysis_date : Asn1.Time.t
(** April 2025 — the paper's final analysis month, used for the "alive"
    classification. *)

val populate_log :
  ?scale:int -> ?precert_rate:float -> seed:int -> Log.t -> int * int
(** [populate_log ~seed log] submits corpus certificates to a CT log,
    running the precertificate flow (poison → SCT → final) for
    [precert_rate] of them (default 0.547, the paper's §4.1 precert
    share by entries) and plain submission otherwise.  Returns
    [(precert entries, certificate entries)] — the dataset-filtering
    step then discards the former by their poison extension. *)
