(** Behavioural audit of the monitor simulators — regenerates Table 6
    by issuing the paper's probe queries against each monitor, and
    demonstrates the CT-monitor-misleading threat (§6.1). *)

type capability = Yes | No

type row = {
  monitor : string;
  case_sensitive : capability;
  unicode_search : capability;
  fuzzy_search : capability;
  ulabel_check : capability;
  punycode_idn : capability;
  punycode_idn_cctld : capability;
  fails_special_unicode : capability;
}

val table6 : unit -> row list
(** Probe all five monitors and report the Table 6 matrix.  A table
    generator: the test suite checks the matrix against the paper. *)

type concealment = {
  monitor : string;
  forged_cn : string;
  owner_query : string;
  concealed : bool;  (** the forged certificate does not surface *)
}

val concealment_demo : unit -> concealment list
(** The misleading-CT-monitors threat: forge certificates whose special
    characters hide them from each monitor's owner-side queries. *)

type recall = { monitor : string; found : int; sampled : int }

val corpus_recall :
  ?scale:int ->
  ?seed:int ->
  ?mutator:Faults.Mutator.plan ->
  ?drop:bool ->
  unit ->
  recall list
(** The Appendix F.2 query battery, quantified: ingest the noncompliant
    Unicerts of a generated corpus sample into each monitor, query each
    by its own primary SAN value, and count how many surface — the
    monitors that drop special characters or lack fuzzy search lose
    certificates (the "Fail to return" column of Table 6, measured).

    [mutator] corrupts a deterministic subset of the corpus before
    delivery; corrupted blobs never parse, so they are excluded and
    recall is computed over the survivors only.  [drop] delivers
    nothing for those indices instead ([--drop-faulty] semantics) —
    the survivor set, and therefore every recall number, is identical
    between the two modes. *)

val render : Format.formatter -> unit
