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
   rebuilds byte-identical serving state.

   Serving state is a set of key tables filled at commit, not a list of
   entries: a query costs one table lookup (exact profiles, [ix]) or
   one pass over the distinct subject keys (fuzzy profiles), plus its
   hits — never a walk over every committed entry. *)

(* Profiles that derive the same keys ({!Monitor.same_keys}) share one
   key rule: [rules] holds one representative profile per rule. *)
let rules =
  Array.of_list
    (List.fold_left
       (fun acc p -> if List.exists (Monitor.same_keys p) acc then acc else acc @ [ p ])
       [] Monitor.all)

let rule_of prof =
  let rec go i = if Monitor.same_keys prof rules.(i) then i else go (i + 1) in
  go 0

(* A subject posting is one int: the entry's corpus index above a
   bitmask of the rules that derive the key from that entry. *)
let rule_bits = Array.length rules

let posting id mask = (id lsl rule_bits) lor mask
let posting_id p = p asr rule_bits

let indexes = [| "issuer"; "lint"; "flaw"; "domain"; "ulabel" |]

(* A staged index entry is (key, id above its index number). *)
let index_bits = 3

let index_number name =
  let rec go i =
    if i = Array.length indexes then None
    else if indexes.(i) = name then Some i
    else go (i + 1)
  in
  go 0

module Keys = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Staged (key, int) pairs in staging order, in two growable arrays. *)
type staged = { mutable keys : string array; mutable ints : int array; mutable n : int }

let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 64 (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

let push s key i =
  s.keys <- grow s.keys s.n "";
  s.ints <- grow s.ints s.n 0;
  s.keys.(s.n) <- key;
  s.ints.(s.n) <- i;
  s.n <- s.n + 1

let clear s =
  s.keys <- [||];
  s.ints <- [||];
  s.n <- 0

type t = {
  mu : Mutex.t;
  staged_subjects : staged;  (* (folded key, posting) *)
  mutable staged_entries : int;
  staged_ix : staged;  (* (key, id lsl index_bits lor index number) *)
  subjects : int list Keys.t;  (* folded key -> postings, newest first *)
  mutable entries : int;  (* committed stage_fields calls *)
  serving_ix : int list Keys.t array;  (* by index number: key -> ids *)
  mutable committed : int;  (* corpus indexes below this are published *)
}

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
  {
    mu = Mutex.create ();
    staged_subjects = { keys = [||]; ints = [||]; n = 0 };
    staged_entries = 0;
    staged_ix = { keys = [||]; ints = [||]; n = 0 };
    subjects = Keys.create 1024;
    entries = 0;
    serving_ix = Array.map (fun _ -> Keys.create 64) indexes;
    committed = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Stage one subject value's postings: one for the rules that keep the
   value whole ([Monitor.field_key] returns it uncopied), one for each
   rule that cuts it. *)
let stage_value s id kind v =
  let whole = ref 0 in
  for r = 0 to Array.length rules - 1 do
    match Monitor.field_key rules.(r) kind v with
    | None -> ()
    | Some k when k == v -> whole := !whole lor (1 lsl r)
    | Some k -> push s (Monitor.fold_key k) (posting id (1 lsl r))
  done;
  if !whole <> 0 then push s (Monitor.fold_key v) (posting id !whole)

let rec stage_values s id kind = function
  | [] -> ()
  | v :: vs ->
      stage_value s id kind v;
      stage_values s id kind vs

let stage_fields t ~id ~cns ~sans ~attrs =
  locked t (fun () ->
      let s = t.staged_subjects in
      stage_values s id Monitor.Cn cns;
      stage_values s id Monitor.San sans;
      stage_values s id Monitor.Attr attrs;
      t.staged_entries <- t.staged_entries + 1)

let stage_index t ~index ~key ~id =
  match index_number index with
  | None -> ()
  | Some ix ->
      locked t (fun () -> push t.staged_ix key ((id lsl index_bits) lor ix))

(* An entry's postings are staged together, so a key it derives twice
   (a CN equal to a SAN, say) meets its own posting at the head and
   merges masks with it. *)
let add_posting tbl key p =
  match Keys.find_opt tbl key with
  | None -> Keys.add tbl key [ p ]
  | Some (q :: rest) when posting_id q = posting_id p ->
      Keys.replace tbl key ((q lor p) :: rest)
  | Some ps -> Keys.replace tbl key (p :: ps)

let add_id tbl key id =
  match Keys.find_opt tbl key with
  | None -> Keys.add tbl key [ id ]
  | Some ids -> Keys.replace tbl key (id :: ids)

let commit t ~upto =
  locked t (fun () ->
      let s = t.staged_subjects in
      for i = 0 to s.n - 1 do
        add_posting t.subjects s.keys.(i) s.ints.(i)
      done;
      clear s;
      t.entries <- t.entries + t.staged_entries;
      t.staged_entries <- 0;
      let s = t.staged_ix in
      for i = 0 to s.n - 1 do
        let v = s.ints.(i) in
        add_id t.serving_ix.(v land ((1 lsl index_bits) - 1)) s.keys.(i)
          (v asr index_bits)
      done;
      clear s;
      t.committed <- max t.committed upto)

(* --- the query protocol ------------------------------------------------ *)

let rec add_digits b i =
  if i >= 10 then add_digits b (i / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))

let add_int b i =
  if i < 0 then Buffer.add_string b (string_of_int i) else add_digits b i

(* "hits <n> <id...>": the distinct ids, ascending.  An array merge
   sort allocates in proportion to the hits; [List.sort_uniq] would
   allocate a list per merge level. *)
let hits ids =
  let a = Array.of_list ids in
  Array.stable_sort Int.compare a;
  let fresh i = i = 0 || a.(i) <> a.(i - 1) in
  let n = ref 0 in
  Array.iteri (fun i _ -> if fresh i then incr n) a;
  let b = Buffer.create (16 + (8 * Array.length a)) in
  Buffer.add_string b "hits ";
  add_int b !n;
  Array.iteri
    (fun i id ->
      if fresh i then begin
        Buffer.add_char b ' ';
        add_int b id
      end)
    a;
  Buffer.contents b

(* Prepend to [acc] the ids of the postings carrying [bit]. *)
let rec collect bit acc = function
  | [] -> acc
  | p :: ps -> collect bit (if p land bit <> 0 then posting_id p :: acc else acc) ps

let subject_query t prof text =
  match Monitor.prepare_query prof text with
  | Error reason -> [ "refused " ^ reason ]
  | Ok prepared ->
      let needle = String.lowercase_ascii prepared in
      let bit = 1 lsl rule_of prof in
      let ids =
        locked t (fun () ->
            if prof.Monitor.fuzzy_search then
              Keys.fold
                (fun key ps acc ->
                  if Monitor.contains ~needle key then collect bit acc ps else acc)
                t.subjects []
            else
              match Keys.find_opt t.subjects needle with
              | None -> []
              | Some ps -> collect bit [] ps)
      in
      [ hits ids ]

let index_query t name key =
  match index_number name with
  | None ->
      [ Printf.sprintf "err unknown index %s (issuer|lint|flaw|domain|ulabel)"
          name ]
  | Some ix ->
      let ids =
        locked t (fun () ->
            Option.value ~default:[] (Keys.find_opt t.serving_ix.(ix) key))
      in
      [ hits ids ]

let stats t =
  locked t (fun () ->
      [ Printf.sprintf "stats committed=%d entries=%d staged=%d" t.committed
          t.entries t.staged_entries ])

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
