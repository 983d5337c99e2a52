(** The monitor daemon's live query service (DESIGN.md §13).

    A crt.sh-style search API over the certificates ingested so far:
    per-profile subject search (Table 6 semantics — U-label/Punycode
    handling, fuzzy vs exact, refusals) plus direct lookups against
    the five persistent store indexes.

    Ingest/read protocol: material is {e staged} as entries arrive and
    published atomically by {!commit} — always paired with the store's
    manifest commit, so readers observe exactly the durable prefix.
    The service is fed pre-derived material (subject fields, index
    entries) rather than certificates; replaying the committed rows of
    a recovered store rebuilds byte-identical serving state.

    {!commit} fills key tables, so a query costs one table lookup
    (exact profiles, index lookups) or one pass over the distinct
    subject keys (fuzzy profiles), plus its hits: never a walk over
    every committed entry.

    All operations are thread-safe. *)

type t

val create : unit -> t

val stage_fields :
  t -> id:int -> cns:string list -> sans:string list -> attrs:string list -> unit
(** Stage one certificate's subject material for every monitor
    profile, keyed by corpus index [id]. *)

val stage_index : t -> index:string -> key:string -> id:int -> unit
(** Stage one persistent-index entry (issuer, lint, flaw, domain or
    ulabel). *)

val commit : t -> upto:int -> unit
(** Publish everything staged and raise the committed watermark to
    [upto] (never lowers). *)

val respond : t -> string -> string list
(** Answer one request line with payload lines (the caller frames
    them).  Grammar:

    {v
      q <profile> <text>    monitor-style subject search
      ix <index> <key>      direct index lookup
      stats                 committed watermark and entry counts
    v}

    Replies: [refused <reason>], [hits <n> <id...>] (ascending),
    [stats committed=<n> ...], or [err <detail>].  Counted in
    [unicert_queries_total]; latency lands in
    [unicert_query_latency_seconds{index}]. *)

val prewarm : unit -> unit
(** Force lazy telemetry handles before spawning worker domains. *)
