(* RFC 6962 Merkle hash trees over an append-only leaf sequence.

   Every tree head and proof node is the hash of a leaf range that is
   either a perfect subtree (2^k leaves starting at a multiple of 2^k)
   or splits into one perfect left subtree and a shorter right part.
   A perfect subtree's hash can never change once its leaves exist, so
   each tree caches them, level by level, the first time a query asks:
   a root or a proof then costs O(log n) hashes rather than rehashing
   all n leaves.  The cache belongs to one tree: no state is shared
   across domains. *)

type t = {
  mutable leaves : string array;  (* leaf hashes; capacity >= len *)
  mutable len : int;
  mutable levels : string array array;
      (* levels.(k - 1).(j): hash of the perfect subtree of 2^k leaves
         starting at leaf j * 2^k, or "" until first computed *)
}

let create () = { leaves = Array.make 16 ""; len = 0; levels = [||] }

let leaf_hash data = Ucrypto.Sha256.digest ("\x00" ^ data)
let node_hash l r = Ucrypto.Sha256.digest ("\x01" ^ l ^ r)

let append_hash t h =
  if t.len = Array.length t.leaves then begin
    let bigger = Array.make (max 16 (2 * t.len)) "" in
    Array.blit t.leaves 0 bigger 0 t.len;
    t.leaves <- bigger
  end;
  t.leaves.(t.len) <- h;
  t.len <- t.len + 1;
  t.len - 1

let append t leaf = append_hash t (leaf_hash leaf)

let size t = t.len

(* Largest power of two strictly less than n (n >= 2). *)
let split_point n =
  let k = ref 1 in
  while !k * 2 < n do
    k := !k * 2
  done;
  !k

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Hash of the perfect subtree of 2^k leaves starting at leaf j * 2^k;
   the caller guarantees those leaves exist. *)
let rec perfect t k j =
  if k = 0 then t.leaves.(j)
  else begin
    if Array.length t.levels < k then begin
      let old = t.levels in
      t.levels <-
        Array.init k (fun i -> if i < Array.length old then old.(i) else [||])
    end;
    let level =
      let level = t.levels.(k - 1) in
      if j < Array.length level then level
      else begin
        let bigger = Array.make (max (j + 1) (2 * Array.length level)) "" in
        Array.blit level 0 bigger 0 (Array.length level);
        t.levels.(k - 1) <- bigger;
        bigger
      end
    in
    match level.(j) with
    | "" ->
        (* The recursion only touches lower levels, so [level] is still
           the live array for level k when the hash lands. *)
        let h =
          node_hash (perfect t (k - 1) (2 * j)) (perfect t (k - 1) ((2 * j) + 1))
        in
        level.(j) <- h;
        h
    | h -> h
  end

(* MTH over leaves [lo, hi).  Every range the RFC recursion visits from
   [0, n) is aligned, so its perfect parts come from the cache. *)
let rec mth t lo hi =
  let n = hi - lo in
  if n = 0 then Ucrypto.Sha256.digest ""
  else if n land (n - 1) = 0 && lo land (n - 1) = 0 then
    let k = log2 n in
    perfect t k (lo lsr k)
  else begin
    let k = split_point n in
    node_hash (mth t lo (lo + k)) (mth t (lo + k) hi)
  end

let root t = mth t 0 t.len

let root_of_range t n =
  if n < 0 || n > t.len then invalid_arg "Merkle.root_of_range";
  mth t 0 n

(* PATH(m, D[n]) per RFC 6962 §2.1.1, over leaves [lo, hi). *)
let rec path t m lo hi =
  let n = hi - lo in
  if n <= 1 then []
  else begin
    let k = split_point n in
    if m < k then path t m lo (lo + k) @ [ mth t (lo + k) hi ]
    else path t (m - k) (lo + k) hi @ [ mth t lo (lo + k) ]
  end

let inclusion_proof t i =
  if i < 0 || i >= t.len then invalid_arg "Merkle.inclusion_proof";
  path t i 0 t.len

let verify_inclusion ~leaf ~index ~size ~proof ~root =
  if index >= size then false
  else begin
    let fn = ref index and sn = ref (size - 1) in
    let r = ref (leaf_hash leaf) in
    let ok = ref true in
    List.iter
      (fun p ->
        if !sn = 0 then ok := false
        else begin
          if !fn land 1 = 1 || !fn = !sn then begin
            r := node_hash p !r;
            if !fn land 1 = 0 then begin
              (* right-border node: skip to the next left turn *)
              while !fn land 1 = 0 && !fn <> 0 do
                fn := !fn lsr 1;
                sn := !sn lsr 1
              done
            end
          end
          else r := node_hash !r p;
          fn := !fn lsr 1;
          sn := !sn lsr 1
        end)
      proof;
    !ok && !sn = 0 && String.equal !r root
  end

(* SUBPROOF(m, D[n], b) per RFC 6962 §2.1.2. *)
let rec subproof t m lo hi b =
  let n = hi - lo in
  if m = n then if b then [] else [ mth t lo hi ]
  else begin
    let k = split_point n in
    if m <= k then subproof t m lo (lo + k) b @ [ mth t (lo + k) hi ]
    else subproof t (m - k) (lo + k) hi false @ [ mth t lo (lo + k) ]
  end

let consistency_proof t m =
  if m < 0 || m > t.len then invalid_arg "Merkle.consistency_proof";
  if m = 0 || m = t.len then [] else subproof t m 0 t.len true

(* Consistency between two historical sizes m <= n <= len: the proof a
   log server answers for get-consistency(first=m, second=n) even after
   the tree has grown past n. *)
let consistency_proof_range t m n =
  if m < 0 || m > n || n > t.len then
    invalid_arg "Merkle.consistency_proof_range";
  if m = 0 || m = n then [] else subproof t m 0 n true

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* RFC 9162 §2.1.4.2 verification algorithm. *)
let verify_consistency ~old_size ~old_root ~new_size ~new_root ~proof =
  if old_size = 0 then true
  else if old_size = new_size then proof = [] && String.equal old_root new_root
  else if proof = [] then false
  else begin
    let proof =
      if is_power_of_two old_size then old_root :: proof else proof
    in
    let proof = Array.of_list proof in
    let fn = ref (old_size - 1) and sn = ref (new_size - 1) in
    while !fn land 1 = 1 do
      fn := !fn lsr 1;
      sn := !sn lsr 1
    done;
    let fr = ref proof.(0) and sr = ref proof.(0) in
    let i = ref 1 in
    let ok = ref true in
    (try
       while !fn <> 0 || !sn <> 0 do
         if !sn = 0 then begin
           ok := false;
           raise Exit
         end;
         if !fn land 1 = 1 || !fn = !sn then begin
           if !i >= Array.length proof then begin
             ok := false;
             raise Exit
           end;
           fr := node_hash proof.(!i) !fr;
           sr := node_hash proof.(!i) !sr;
           incr i;
           if !fn land 1 = 0 then
             while !fn land 1 = 0 && !fn <> 0 do
               fn := !fn lsr 1;
               sn := !sn lsr 1
             done
         end
         else begin
           if !i >= Array.length proof then begin
             ok := false;
             raise Exit
           end;
           sr := node_hash !sr proof.(!i);
           incr i
         end;
         fn := !fn lsr 1;
         sn := !sn lsr 1
       done
     with Exit -> ());
    !ok && !i = Array.length proof
    && String.equal !fr old_root && String.equal !sr new_root
  end
