type sct = { log_id : string; timestamp : int; signature : string }
type entry = { index : int; der : string; precert : bool }

type t = {
  id : string;
  mac : Ucrypto.Sha256.hmac_key;  (* precomputed midstates of the log's secret *)
  tree : Merkle.t;
  mutable stored : entry array;  (* by index; capacity >= size *)
}

let create ~name =
  {
    id = Ucrypto.Sha256.digest ("ct-log:" ^ name);
    mac = Ucrypto.Sha256.hmac_init (Ucrypto.Sha256.digest ("ct-log-secret:" ^ name));
    tree = Merkle.create ();
    stored = [||];
  }

let log_id t = t.id

let leaf_bytes ~precert der = (if precert then "\x01" else "\x00") ^ der

let append t ?(precert = false) der =
  let index = Merkle.append t.tree (leaf_bytes ~precert der) in
  let entry = { index; der; precert } in
  if index = Array.length t.stored then begin
    let bigger = Array.make (max 16 (2 * index)) entry in
    Array.blit t.stored 0 bigger 0 index;
    t.stored <- bigger
  end;
  t.stored.(index) <- entry;
  index

let add_chain t ?(precert = false) der =
  let index = append t ~precert der in
  {
    log_id = t.id;
    timestamp = index;
    signature =
      Ucrypto.Sha256.hmac_with t.mac (string_of_int index ^ leaf_bytes ~precert der);
  }

let verify_sct t ~der sct =
  String.equal sct.log_id t.id
  &&
  let precert_leaf = leaf_bytes ~precert:true der in
  let cert_leaf = leaf_bytes ~precert:false der in
  let check leaf =
    String.equal sct.signature
      (Ucrypto.Sha256.hmac_with t.mac (string_of_int sct.timestamp ^ leaf))
  in
  check precert_leaf || check cert_leaf

let tree t = t.tree
let size t = Merkle.size t.tree
let entries t = List.init (size t) (fun i -> t.stored.(i))
let tree_head t = Merkle.root t.tree
let prove_inclusion t i = Merkle.inclusion_proof t.tree i
let get t i = if i >= 0 && i < size t then Some t.stored.(i) else None
