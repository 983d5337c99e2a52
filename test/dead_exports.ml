(* The dead-export gate: every [val] a library interface exports must
   be used by some other compilation unit, or be listed with a reason in
   the allowlist.

   Usage: dead_exports.exe ALLOWLIST FILE.cmt|FILE.cmti ...
   Run it as [dune build @dead-exports]; [dune runtest] includes it.

   The files are dune's typed trees.  Those under a library's [.objs]
   directory supply the exports (every [val] of every [.cmti], nested
   signatures included); every [.cmt], library or executable, is a
   potential user.  Each [Texp_ident] is resolved through module
   aliases (dune's [Lib] wrapper and [Lib__Mod] units, re-exports such
   as [module Pipeline = Pipeline] in a main module, local
   [module M = ...]) and structure-level [include]s (lint.ml's
   [include Types]) to the unit that defines the value, so a name
   collision is never a use.  A module passed to a functor or packed as
   a first-class module uses every export it has.

   Allowlist lines are [Lib.Module.value reason...]; blank lines and
   lines starting with [#] are skipped.  The gate fails (exit 1) on an
   unused export that is not listed, on a listed name that is no longer
   an export or now has a user, and on a line with no reason.

   It also fails on a source file under [lib/] or [bin/] (where the
   libraries live) that reached it as no typed tree: a library directory
   missing from the rule in test/dune would otherwise go unchecked.  A
   missing user directory needs no such check, since it can only make
   an export look unused. *)

open Typedtree

(* What a structure binds that a path can go through. *)
type modl = {
  aliases : (string, Path.t) Hashtbl.t;  (* module X = P *)
  subs : (string, modl) Hashtbl.t;  (* module X = struct ... end *)
  mutable includes : Path.t list;  (* include P *)
}

type unit_info = {
  name : string;
  mutable desc : modl option;
  (* Module idents bound anywhere in the unit to a module path. *)
  locals : (string, Path.t) Hashtbl.t;
}

type key = { unit : string; path : string list; value : string }

(* Unit [Ctlog__Dataset] is [Ctlog.Dataset] to a reader. *)
let display k =
  String.concat "."
    ((Str.global_replace (Str.regexp_string "__") "." k.unit :: k.path)
    @ [ k.value ])

let rec strip me =
  match me.mod_desc with Tmod_constraint (me, _, _, _) -> strip me | _ -> me

let rec describe str =
  let m =
    { aliases = Hashtbl.create 8; subs = Hashtbl.create 8; includes = [] }
  in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; _ } -> (
          match (strip mb_expr).mod_desc with
          | Tmod_ident (p, _) -> Hashtbl.replace m.aliases name p
          | Tmod_structure s -> Hashtbl.replace m.subs name (describe s)
          | _ -> ())
      | Tstr_include { incl_mod; _ } -> (
          match (strip incl_mod).mod_desc with
          | Tmod_ident (p, _) -> m.includes <- m.includes @ [ p ]
          | _ -> ())
      | _ -> ())
    str.str_items;
  m

let collect_locals u str =
  let bind id me =
    match (id, (strip me).mod_desc) with
    | Some id, Tmod_ident (p, _) ->
        Hashtbl.replace u.locals (Ident.unique_name id) p
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun it mb ->
          bind mb.mb_id mb.mb_expr;
          Tast_iterator.default_iterator.module_binding it mb);
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_letmodule (id, _, _, me, _) -> bind id me
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str

let units : (string, unit_info) Hashtbl.t = Hashtbl.create 256
let typed_sources : (string, unit) Hashtbl.t = Hashtbl.create 256
let exports : (key, string * int) Hashtbl.t = Hashtbl.create 1024
let users : (key, unit) Hashtbl.t = Hashtbl.create 1024

let rec sig_exports unit path sg file =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          Hashtbl.replace exports
            { unit; path; value = vd.val_name.txt }
            (file, vd.val_loc.loc_start.pos_lnum)
      | Tsig_module
          {
            md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _;
          } ->
          sig_exports unit (path @ [ name ]) sg file
      | _ -> ())
    sg.sig_items

let rec find_sub m = function
  | [] -> Some m
  | s :: rest -> Option.bind (Hashtbl.find_opt m.subs s) (fun m -> find_sub m rest)

let desc_of (unit, path) =
  match Hashtbl.find_opt units unit with
  | Some { desc = Some m; _ } -> find_sub m path
  | _ -> None

(* [resolve ctx p] is the (unit, sub-module path) module [p] denotes in
   unit [ctx], following aliases; [None] for a functor application or a
   module local to an expression. *)
let rec resolve ctx = function
  | Path.Pident id when Ident.persistent id -> Some (Ident.name id, [])
  | Path.Pident id -> (
      match Hashtbl.find_opt ctx.locals (Ident.unique_name id) with
      | Some p -> resolve ctx p
      | None -> None)
  | Path.Pdot (p, s) -> Option.bind (resolve ctx p) (fun m -> member m s)
  | Path.Papply _ | Path.Pextra_ty _ -> None

and member ((unit, path) as m) s =
  match desc_of m with
  | None -> Some (unit, path @ [ s ])
  | Some d -> (
      match Hashtbl.find_opt d.aliases s with
      | Some p -> resolve (Hashtbl.find units unit) p
      | None when Hashtbl.mem d.subs s -> Some (unit, path @ [ s ])
      | None -> (
          match List.find_map (fun p -> included m p s) d.includes with
          | Some m -> Some m
          | None -> Some (unit, path @ [ s ])))

and included (unit, _) p s =
  Option.bind
    (resolve (Hashtbl.find units unit) p)
    (fun m' ->
      match desc_of m' with
      | Some d when Hashtbl.mem d.aliases s || Hashtbl.mem d.subs s ->
          member m' s
      | _ -> None)

(* The export [value] of module [m] names, looking through includes. *)
let rec find_value ((unit, path) as m) value =
  let k = { unit; path; value } in
  if Hashtbl.mem exports k then Some k
  else
    match desc_of m with
    | None -> None
    | Some d ->
        List.find_map
          (fun p ->
            Option.bind
              (resolve (Hashtbl.find units unit) p)
              (fun m' -> find_value m' value))
          d.includes

let use ctx k = if k.unit <> ctx.name then Hashtbl.replace users k ()

let use_path ctx = function
  | Path.Pdot (p, s) ->
      Option.iter
        (fun m -> Option.iter (use ctx) (find_value m s))
        (resolve ctx p)
  | _ -> ()

let rec is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p, y :: l -> x = y && is_prefix p l
  | _ -> false

let use_module ctx me =
  match (strip me).mod_desc with
  | Tmod_ident (p, _) ->
      Option.iter
        (fun (unit, path) ->
          Hashtbl.iter
            (fun k _ -> if k.unit = unit && is_prefix path k.path then use ctx k)
            exports)
        (resolve ctx p)
  | _ -> ()

let scan_uses ctx str =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> use_path ctx p
          | Texp_pack me -> use_module ctx me
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
      binding_op =
        (fun it bop ->
          use_path ctx bop.bop_op_path;
          Tast_iterator.default_iterator.binding_op it bop);
      module_expr =
        (fun it me ->
          (match me.mod_desc with
          | Tmod_apply (_, arg, _) -> use_module ctx arg
          | _ -> ());
          Tast_iterator.default_iterator.module_expr it me);
    }
  in
  it.structure it str

let is_library file =
  Filename.check_suffix (Filename.dirname (Filename.dirname file)) ".objs"

let load file =
  let cmt = Cmt_format.read_cmt file in
  let name = cmt.cmt_modname in
  let source = Option.value cmt.cmt_sourcefile ~default:file in
  Hashtbl.replace typed_sources source ();
  (* Executables all share dune's [Dune__exe] wrapper names, so only a
     library unit is reachable by name from another unit. *)
  let u = { name; desc = None; locals = Hashtbl.create 16 } in
  let u =
    if is_library file then (
      match Hashtbl.find_opt units name with
      | Some u -> u
      | None ->
          Hashtbl.replace units name u;
          u)
    else u
  in
  match cmt.cmt_annots with
  | Implementation str ->
      u.desc <- Some (describe str);
      collect_locals u str;
      Some (u, str)
  | Interface sg when is_library file ->
      sig_exports name [] sg source;
      None
  | _ -> None

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if f.[0] = '.' || f.[0] = '_' then []
         else if Sys.is_directory p then sources p
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ p ]
         else [])

(* (line number, name, whether a reason follows the name) *)
let read_allowlist file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  |> List.map (fun (n, line) ->
         match String.index_opt line ' ' with
         | Some i -> (n, String.sub line 0 i, true)
         | None -> (n, line, false))

let () =
  match Array.to_list Sys.argv with
  | _ :: allow :: files ->
      let files =
        List.filter
          (fun f -> Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
          files
      in
      List.iter (fun (u, str) -> scan_uses u str) (List.filter_map load files);
      let by_name = Hashtbl.create 1024 in
      Hashtbl.iter (fun k _ -> Hashtbl.replace by_name (display k) k) exports;
      let errors = ref [] in
      let error loc msg = errors := (loc, msg) :: !errors in
      List.iter
        (fun src ->
          if not (Hashtbl.mem typed_sources src) then
            error (src, 1)
              "has no typed tree among the gate's inputs; add its .objs \
               directory to the dead-exports rule in test/dune")
        (sources "lib" @ sources "bin");
      let allowed = Hashtbl.create 16 in
      List.iter
        (fun (n, name, has_reason) ->
          let loc = (allow, n) in
          if not has_reason then error loc (name ^ " is listed without a reason")
          else
            match Hashtbl.find_opt by_name name with
            | None -> error loc (name ^ " is listed but is not an export")
            | Some k when Hashtbl.mem users k ->
                error loc (name ^ " is listed but now has a user; delete the line")
            | Some k -> Hashtbl.replace allowed k ())
        (read_allowlist allow);
      Hashtbl.iter
        (fun k loc ->
          if not (Hashtbl.mem users k || Hashtbl.mem allowed k) then
            error loc
              (display k
             ^ " is exported but no other unit uses it; delete it, drop it \
                from the .mli, or list it with a reason in " ^ allow))
        exports;
      if !errors = [] then
        Printf.printf "dead-exports: OK (%d exports, %d allowlisted, %d files)\n"
          (Hashtbl.length exports) (Hashtbl.length allowed) (List.length files)
      else (
        List.iter
          (fun ((file, line), msg) -> Printf.printf "%s:%d: %s\n" file line msg)
          (List.sort compare !errors);
        exit 1)
  | _ ->
      prerr_endline "usage: dead_exports ALLOWLIST FILE.cmt|FILE.cmti ...";
      exit 2
