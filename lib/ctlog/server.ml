(* A CT log front end over [Log.t]: paged get-entries, get-sth and
   get-consistency served as sealed Wire bodies, plus the two
   misbehaviours the fetch client must survive — delayed publication
   (the visible tree size lags the real one until [set_published]
   moves it) and equivocation (past a scheduled request count, tree
   heads and consistency proofs come from a shadow tree with one leaf
   flipped: a split view). *)

type t = {
  log : Log.t;
  page_cap : int;
  mutable published : int;
  mutable requests : int;  (* requests served, drives equivocation *)
  mutable equivocate : (int * int) option;  (* (at_request, flipped leaf) *)
  mutable shadow : (int * Merkle.t) option;  (* cache: (built_at_size, tree) *)
}

let default_page_cap = 64

let create ?(page_cap = default_page_cap) log =
  if page_cap < 1 then invalid_arg "Ctlog.Server.create: page_cap < 1";
  {
    log;
    page_cap;
    published = Log.size log;
    requests = 0;
    equivocate = None;
    shadow = None;
  }

let published t = t.published
let requests t = t.requests

let set_published t n =
  if n < 0 || n > Log.size t.log then invalid_arg "Ctlog.Server.set_published";
  t.published <- n

let equivocate_after t ~at_request ~flip =
  t.equivocate <- Some (at_request, flip);
  t.shadow <- None

(* Entry [e]'s DER as a view with leaf [flip] bit-flipped serves it. *)
let der_in_view (e : Log.entry) ~flip =
  if e.Log.index = flip && String.length e.Log.der > 0 then begin
    let b = Bytes.of_string e.Log.der in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
    Bytes.to_string b
  end
  else e.Log.der

let entry t i = Option.get (Log.get t.log i)

(* The shadow tree: the log's leaves with leaf [flip] bit-flipped —
   a view that shares no consistent history with the real one. *)
let shadow_tree t flip =
  let size = Log.size t.log in
  match t.shadow with
  | Some (built, tree) when built = size -> tree
  | _ ->
      let tree = Merkle.create () in
      for i = 0 to size - 1 do
        let e = entry t i in
        ignore
          (Merkle.append tree
             (Log.leaf_bytes ~precert:e.Log.precert (der_in_view e ~flip)))
      done;
      t.shadow <- Some (size, tree);
      tree

let view t =
  match t.equivocate with
  | Some (at_request, flip) when t.requests > at_request -> shadow_tree t flip
  | _ -> Log.tree t.log

(* Endpoints: "get-sth" (page = refresh counter, ignored),
   "get-consistency/<second>" (page = first), "get-entries" (page =
   start index; the server returns at most [page_cap] entries). *)
let handle t (req : Net.Transport.request) =
  t.requests <- t.requests + 1;
  let tree = view t in
  let endpoint = req.Net.Transport.endpoint in
  if endpoint = "get-sth" then
    Wire.seal
      [ Printf.sprintf "sth %d %s" t.published
          (Wire.to_hex (Merkle.root_of_range tree t.published)) ]
  else if endpoint = "get-entries" then begin
    let start = req.Net.Transport.page in
    let stop = min t.published (start + t.page_cap) in
    if start < 0 || start >= t.published then
      Wire.seal [ Printf.sprintf "error 400 bad start %d" start ]
    else begin
      (* Entries come from the same view as the tree head: past the
         equivocation point the flipped leaf's bytes are served, so a
         page fetched from the forked world genuinely fails to
         reproduce a root trusted before the fork. *)
      let flip =
        match t.equivocate with
        | Some (at_request, flip) when t.requests > at_request -> flip
        | _ -> -1
      in
      let line i =
        let e = entry t i in
        (if e.Log.precert then "1 " else "0 ") ^ Wire.to_hex (der_in_view e ~flip)
      in
      Wire.seal
        (Printf.sprintf "entries %d %d" start (stop - start)
        :: List.init (stop - start) (fun k -> line (start + k)))
    end
  end
  else begin
    match String.index_opt endpoint '/' with
    | Some i when String.sub endpoint 0 i = "get-consistency" ->
        let second =
          int_of_string_opt
            (String.sub endpoint (i + 1) (String.length endpoint - i - 1))
        in
        let first = req.Net.Transport.page in
        (match second with
        | Some second
          when first >= 0 && first <= second && second <= Merkle.size tree ->
            let proof = Merkle.consistency_proof_range tree first second in
            Wire.seal
              (Printf.sprintf "consistency %d %d %d" first second
                 (List.length proof)
              :: List.map Wire.to_hex proof)
        | _ -> Wire.seal [ Printf.sprintf "error 400 bad range" ])
    | _ -> Wire.seal [ Printf.sprintf "error 404 %s" endpoint ]
  end
