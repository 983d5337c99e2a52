(* Findings: the JSONL interchange format between campaign, minimizer,
   report, and the smoke tests.

   One line per finding, written in discovery order; fields are emitted
   in a fixed order so identical campaigns produce byte-identical
   files.  [der_hex] carries the full candidate encoding, letting
   [minimize] and the regression suite re-evaluate findings offline. *)

type finding = {
  round : int;
  index : int;
  exec : int;  (* global execution number at discovery *)
  cluster : string;
  cls : string;
  signature : string;
  op : string;
  context : string;
  declared : string;
  count : int;  (* total campaign occurrences of this signature *)
  der : string;
  min_der : string option;
}

let cluster_id ~cls ~signature =
  cls ^ "-" ^ String.sub (Ucrypto.Sha256.hex signature) 0 8

let to_json f =
  let esc = Obs.Jsonv.escape in
  Printf.sprintf
    "{\"round\":%d,\"index\":%d,\"exec\":%d,\"cluster\":%s,\"class\":%s,\"signature\":%s,\"op\":%s,\"context\":%s,\"declared\":%s,\"count\":%d,\"der_hex\":%s,\"min_der_hex\":%s}"
    f.round f.index f.exec (esc f.cluster) (esc f.cls) (esc f.signature)
    (esc f.op) (esc f.context) (esc f.declared) f.count
    (esc (Ucrypto.Hex.encode f.der))
    (match f.min_der with None -> "null" | Some d -> esc (Ucrypto.Hex.encode d))

let of_json line =
  match Obs.Jsonv.parse line with
  | Error msg -> Error msg
  | Ok v -> (
      let str k =
        match Obs.Jsonv.member k v with
        | Some (Obs.Jsonv.Str s) -> Ok s
        | _ -> Error (Printf.sprintf "missing string field %S" k)
      in
      let num k =
        match Obs.Jsonv.member k v with
        | Some (Obs.Jsonv.Num n) -> Ok (int_of_float n)
        | _ -> Error (Printf.sprintf "missing numeric field %S" k)
      in
      let ( let* ) = Result.bind in
      let* round = num "round" in
      let* index = num "index" in
      let* exec = num "exec" in
      let* cluster = str "cluster" in
      let* cls = str "class" in
      let* signature = str "signature" in
      let* op = str "op" in
      let* context = str "context" in
      let* declared = str "declared" in
      let* count = num "count" in
      let hex k s =
        Option.to_result ~none:(Printf.sprintf "field %S is not hex" k)
          (Ucrypto.Hex.decode s)
      in
      let* der = Result.bind (str "der_hex") (hex "der_hex") in
      let* min_der =
        match Obs.Jsonv.member "min_der_hex" v with
        | Some (Obs.Jsonv.Str s) -> Result.map Option.some (hex "min_der_hex" s)
        | _ -> Ok None
      in
      Ok
        { round; index; exec; cluster; cls; signature; op; context; declared;
          count; der; min_der })

let write path findings =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun f -> output_string oc (to_json f ^ "\n")) findings)

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go acc (lineno + 1)
        | line -> (
            match of_json line with
            | Ok f -> go (f :: acc) (lineno + 1)
            | Error msg ->
                Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go [] 1)

(* Cluster summary: [(cluster, class, occurrences, exemplar)] in order
   of first discovery — stable across runs of the same campaign.  One
   finding per cluster is the common case (a cluster *is* a distinct
   signature); occurrences sum the campaign-wide [count]s. *)
let clusters findings =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      match Hashtbl.find_opt tbl f.cluster with
      | Some (n, ex) -> Hashtbl.replace tbl f.cluster (n + max 1 f.count, ex)
      | None ->
          Hashtbl.add tbl f.cluster (max 1 f.count, f);
          order := f.cluster :: !order)
    findings;
  List.rev_map
    (fun c ->
      let n, ex = Hashtbl.find tbl c in
      (c, ex.cls, n, ex))
    !order

let report ppf findings =
  let cs = clusters findings in
  Format.fprintf ppf "findings: %d, clusters: %d@." (List.length findings)
    (List.length cs);
  Format.fprintf ppf "%-42s %-22s %6s %7s %6s  %s@." "CLUSTER" "CLASS" "COUNT"
    "BEYOND" "BYTES" "SIGNATURE";
  List.iter
    (fun (c, cls, n, ex) ->
      Format.fprintf ppf "%-42s %-22s %6d %7s %6d  %s@." c cls n
        (if Exec.beyond_tables cls then "yes" else "no")
        (String.length (Option.value ~default:ex.der ex.min_der))
        ex.signature)
    cs
