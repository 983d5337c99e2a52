(* The live query service behind the monitor daemon (DESIGN.md §13).

   Ingest is two-phase: rows are *staged* as they arrive off the logs,
   and a later *commit* — always paired with the store's atomic
   manifest commit — publishes everything staged in one step.  Readers
   only ever observe committed state, so a query races with ingest at
   snapshot granularity: the answer is exactly what the last durable
   commit contains, never a half-ingested tick.

   The service is fed pre-derived material (subject fields and index
   entries computed from stored analysis rows) rather than
   certificates: replaying the committed rows of a recovered store
   rebuilds byte-identical serving state. *)

(* Profiles that derive the same keys ({!Monitor.same_keys}) share one
   key rule: [rules] holds one representative profile per rule, and an
   entry holds one key list per rule, with equal lists stored once.
   Keys are derived at stage time, so a query only matches. *)
let rules =
  Array.of_list
    (List.fold_left
       (fun acc p -> if List.exists (Monitor.same_keys p) acc then acc else acc @ [ p ])
       [] Monitor.all)

let rule_of prof =
  let rec go i = if Monitor.same_keys prof rules.(i) then i else go (i + 1) in
  go 0

type entry = { e_id : int; e_keys : string list array  (* by rule *) }

type t = {
  mu : Mutex.t;
  mutable staged : entry list;  (* newest first *)
  mutable serving : entry list;  (* newest first *)
  mutable staged_ix : (string * (string * int)) list;
      (* (index name, (key, id)), newest first *)
  serving_ix : (string, (string, int list) Hashtbl.t) Hashtbl.t;
      (* index name -> key -> ids, newest first *)
  mutable committed : int;  (* corpus indexes below this are published *)
}

let indexes = [ "issuer"; "lint"; "flaw"; "domain"; "ulabel" ]

let obs_queries =
  lazy
    (Obs.Registry.counter ~help:"Queries answered by the monitor service"
       "unicert_queries_total")

let obs_latency =
  lazy
    (Obs.Registry.labeled_histogram ~label:"index"
       ~help:"Query latency by index (subject = profile search)"
       "unicert_query_latency_seconds")

let prewarm () =
  ignore (Lazy.force obs_queries);
  ignore (Lazy.force obs_latency)

let create () =
  let serving_ix = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace serving_ix n (Hashtbl.create 64)) indexes;
  {
    mu = Mutex.create ();
    staged = [];
    serving = [];
    staged_ix = [];
    serving_ix;
    committed = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stage_fields t ~id ~cns ~sans ~attrs =
  let fields =
    { Monitor.f_cns = cns; Monitor.f_sans = sans; Monitor.f_attrs = attrs }
  in
  let keys = Array.map (fun r -> Monitor.keys_of_fields r fields) rules in
  (* Equal lists are stored once: each rule keeps the first equal one. *)
  let first k =
    let rec go j = if keys.(j) = k then keys.(j) else go (j + 1) in
    go 0
  in
  let e = { e_id = id; e_keys = Array.map first keys } in
  locked t (fun () -> t.staged <- e :: t.staged)

let stage_index t ~index ~key ~id =
  locked t (fun () -> t.staged_ix <- (index, (key, id)) :: t.staged_ix)

let commit t ~upto =
  locked t (fun () ->
      (* Staged and serving lists are both newest-first, so a commit
         costs O(staged); [hits] sorts the ids it answers with. *)
      t.serving <- List.rev_append (List.rev t.staged) t.serving;
      t.staged <- [];
      List.iter
        (fun (ix, (key, id)) ->
          match Hashtbl.find_opt t.serving_ix ix with
          | None -> ()
          | Some tbl ->
              let ids = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
              Hashtbl.replace tbl key (id :: ids))
        (List.rev t.staged_ix);
      t.staged_ix <- [];
      t.committed <- max t.committed upto)

(* --- the query protocol ------------------------------------------------ *)

let hits ids =
  let ids = List.sort_uniq compare ids in
  Printf.sprintf "hits %d%s" (List.length ids)
    (String.concat "" (List.map (fun i -> " " ^ string_of_int i) ids))

let subject_query t prof text =
  match Monitor.prepare_query prof text with
  | Error reason -> [ "refused " ^ reason ]
  | Ok prepared ->
      let needle = String.lowercase_ascii prepared in
      let rule = rule_of prof in
      let ids =
        locked t (fun () ->
            List.filter_map
              (fun e ->
                if Monitor.matches prof ~needle e.e_keys.(rule) then Some e.e_id
                else None)
              t.serving)
      in
      [ hits ids ]

let index_query t name key =
  if not (List.mem name indexes) then
    [ Printf.sprintf "err unknown index %s (issuer|lint|flaw|domain|ulabel)"
        name ]
  else
    let ids =
      locked t (fun () ->
          match Hashtbl.find_opt t.serving_ix name with
          | None -> []
          | Some tbl -> Option.value ~default:[] (Hashtbl.find_opt tbl key))
    in
    [ hits ids ]

let stats t =
  locked t (fun () ->
      [ Printf.sprintf "stats committed=%d entries=%d staged=%d" t.committed
          (List.length t.serving) (List.length t.staged) ])

let split2 s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let respond t line =
  let t0 = Unix.gettimeofday () in
  Obs.Counter.inc (Lazy.force obs_queries);
  let cmd, rest = split2 (String.trim line) in
  let bucket, reply =
    match cmd with
    | "q" -> (
        let pkey, text = split2 rest in
        match Monitor.of_key pkey with
        | None ->
            ("subject", [ Printf.sprintf "err unknown profile %s" pkey ])
        | Some prof ->
            if text = "" then ("subject", [ "err empty query" ])
            else ("subject", subject_query t prof text))
    | "ix" ->
        let name, key = split2 rest in
        (name, index_query t name key)
    | "stats" -> ("stats", stats t)
    | other -> ("err", [ Printf.sprintf "err unknown command %s" other ])
  in
  Obs.Histogram.observe
    (Obs.Histogram.Labeled.get (Lazy.force obs_latency) bucket)
    (Unix.gettimeofday () -. t0);
  reply
