(* The dead-export gate: every [val] a library interface exports must
   be used by some other compilation unit outside [test/], every record
   field a library declares must be read by some unit, and every
   variant constructor it declares must be built by some unit; anything
   else must be listed with a reason in the allowlist.

   Usage: dead_exports.exe ALLOWLIST FILE.cmt|FILE.cmti ...
   Run it as [dune build @dead-exports]; [dune runtest] includes it.

   The files are dune's typed trees.  Those under a library's [.objs]
   directory supply the exports (every [val] of every [.cmti], nested
   signatures included) and the fields and constructors of every type
   a library module declares; every [.cmt], library or executable, is a
   potential user.  Each [Texp_ident] is resolved
   through module aliases (dune's [Lib] wrapper and [Lib__Mod] units,
   re-exports such as [module Pipeline = Pipeline] in a main module,
   local [module M = ...]) and structure-level [include]s (lint.ml's
   [include Types]) to the unit that defines the value, so a name
   collision is never a use.  A module passed to a functor or packed as
   a first-class module uses every export it has.

   Rule 1: a use counts only from a unit outside [test/] (those under
   [lib/], [bin/], [examples/] and [bench/harness/]).  An export that
   only tests reach needs an allowlist line whose reason starts
   [test-only:] followed by its role: [oracle], [fixture builder],
   [hook] or [table generator].

   Rule 2: a field is read by a [Texp_field] or by a record pattern
   whose sub-pattern is not [_]; building a record or copying it with
   [{ r with ... }] is not a read.  Rule 3: a constructor is built by a
   [Texp_construct]; matching it is not building it.  For both, every
   unit counts, tests and the defining unit included, and the label's
   or constructor's type path is resolved to its defining unit like a
   value, through re-exported types ([type t = M.t = ...]) as well, so
   two fields of one name never mask each other.  The typed tree cannot
   see a read through polymorphic [=], [Marshal] or [Hashtbl.hash];
   a field kept for such a read is listed with that reason.

   Allowlist lines are [Name reason...], where [Name] is
   [Lib.Module.value], [Lib.Module.type.field] or
   [Lib.Module.type.Constructor]; blank lines and lines starting with
   [#] are skipped.  The gate fails (exit 1) on an unlisted offender, on
   a listed name that no longer needs its line (it is gone, or has the
   use it lacked), on a test-only export whose reason does not say
   [test-only:] and its role, and on a line with no reason.

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
  test : bool;  (* a unit under test/, whose uses of values do not count *)
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

(* [true] once a unit outside test/ uses the export, [false] while only
   tests do. *)
let users : (key, bool) Hashtbl.t = Hashtbl.create 1024

(* Fields and constructors of library types, keyed with the type name
   (and, for an inline record, the constructor) appended to [path]. *)
let fields : (key, string * int) Hashtbl.t = Hashtbl.create 512
let ctors : (key, string * int) Hashtbl.t = Hashtbl.create 512
let read : (key, unit) Hashtbl.t = Hashtbl.create 512
let built : (key, unit) Hashtbl.t = Hashtbl.create 512

(* Declared record and variant types, as (unit, path @ [type]); a type
   that re-exports another ([type t = M.t = ...]) maps to the path it
   names, resolved in its own unit. *)
let types : (string * string list, unit) Hashtbl.t = Hashtbl.create 256
let type_aliases : (string * string list, Path.t) Hashtbl.t = Hashtbl.create 64

(* A type an implementation declares, by (unit, [Ident.unique_name]),
   for the bare [Pident] its own unit refers to it by. *)
let local_types : (string * string, (string * string list) * string) Hashtbl.t =
  Hashtbl.create 256

let line loc = loc.Location.loc_start.pos_lnum

(* A type of a library unit, from its interface or, when the interface
   leaves it abstract or out, its implementation; the interface's line
   wins. *)
let declare_type unit path file td =
  let tpath = path @ [ td.typ_name.txt ] in
  let add tbl k loc =
    if Filename.check_suffix file ".mli" || not (Hashtbl.mem tbl k) then
      Hashtbl.replace tbl k (file, line loc)
  in
  let labels tpath =
    List.iter (fun ld ->
        add fields { unit; path = tpath; value = ld.ld_name.txt } ld.ld_loc)
  in
  match (td.typ_manifest, td.typ_kind) with
  | Some { ctyp_desc = Ttyp_constr (p, _, _); _ },
    (Ttype_record _ | Ttype_variant _) ->
      Hashtbl.replace type_aliases (unit, tpath) p
  | _, Ttype_record lds ->
      Hashtbl.replace types (unit, tpath) ();
      labels tpath lds
  | _, Ttype_variant cds ->
      Hashtbl.replace types (unit, tpath) ();
      List.iter
        (fun cd ->
          add ctors { unit; path = tpath; value = cd.cd_name.txt } cd.cd_loc;
          match cd.cd_args with
          | Cstr_record lds -> labels (tpath @ [ cd.cd_name.txt ]) lds
          | Cstr_tuple _ -> ())
        cds
  | _ -> ()

let rec sig_exports unit path sg file =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          Hashtbl.replace exports
            { unit; path; value = vd.val_name.txt }
            (file, line vd.val_loc)
      | Tsig_type (_, tds) ->
          List.iter (declare_type unit path file) tds
      | Tsig_module
          {
            md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _;
          } ->
          sig_exports unit (path @ [ name ]) sg file
      | _ -> ())
    sg.sig_items

let rec str_types unit path file str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_type (_, tds) ->
          List.iter
            (fun td ->
              Hashtbl.replace local_types
                (unit, Ident.unique_name td.typ_id)
                ((unit, path), td.typ_name.txt);
              declare_type unit path file td)
            tds
      | Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; _ } -> (
          match (strip mb_expr).mod_desc with
          | Tmod_structure s -> str_types unit (path @ [ name ]) file s
          | _ -> ())
      | _ -> ())
    str.str_items

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

let use ctx k =
  if k.unit <> ctx.name then
    if not ctx.test then Hashtbl.replace users k true
    else if not (Hashtbl.mem users k) then Hashtbl.replace users k false

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

let rec names = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> names p @ [ s ]
  | Path.Papply _ | Path.Pextra_ty _ -> []

(* The declared type, as (unit, path @ [type]), that type path [p] in
   unit [ctx] names, following module aliases, includes and re-exported
   types.  A module the resolver cannot follow (a structure local to the
   unit) is taken by its spelling. *)
let rec find_type ctx p =
  match p with
  | Path.Pident id ->
      Option.bind
        (Hashtbl.find_opt local_types (ctx.name, Ident.unique_name id))
        (fun (m, t) -> lookup_type m t)
  | Path.Pdot (m, t) ->
      lookup_type (Option.value (resolve ctx m) ~default:(ctx.name, names m)) t
  | Path.Papply _ | Path.Pextra_ty _ -> None

and lookup_type ((unit, path) as m) t =
  let k = (unit, path @ [ t ]) in
  if Hashtbl.mem types k then Some k
  else
    match (Hashtbl.find_opt type_aliases k, Hashtbl.find_opt units unit) with
    | Some p, Some u -> find_type u p
    | _, u -> (
        match (desc_of m, u) with
        | Some d, Some u ->
            List.find_map
              (fun p -> Option.bind (resolve u p) (fun m' -> lookup_type m' t))
              d.includes
        | _ -> None)

(* Record that a unit reads field (or builds constructor) [value] of the
   type [ty]. *)
let mark tbl ctx ty value =
  let add extra (unit, path) =
    Hashtbl.replace tbl { unit; path = path @ extra; value } ()
  in
  match Types.get_desc ty with
  | Tconstr (Path.Pextra_ty (p, Pcstr_ty c), _, _) ->
      Option.iter (add [ c ]) (find_type ctx p)
  | Tconstr (p, _, _) -> Option.iter (add []) (find_type ctx p)
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
          | Texp_field (_, _, l) -> mark read ctx l.lbl_res l.lbl_name
          | Texp_construct (_, c, _) -> mark built ctx c.cstr_res c.cstr_name
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
      pat =
        (fun (type k) it (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_record (fs, _) ->
              List.iter
                (fun (_, (l : Types.label_description), sub) ->
                  match sub.pat_desc with
                  | Tpat_any -> ()
                  | _ -> mark read ctx l.lbl_res l.lbl_name)
                fs
          | _ -> ());
          Tast_iterator.default_iterator.pat it p);
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
  let test = String.starts_with ~prefix:"test/" source in
  let u = { name; test; desc = None; locals = Hashtbl.create 16 } in
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
      if is_library file then str_types name [] source str;
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

(* (line number, name, reason) *)
let read_allowlist file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  |> List.map (fun (n, line) ->
         match String.index_opt line ' ' with
         | Some i ->
             let reason = String.sub line (i + 1) (String.length line - i - 1) in
             (n, String.sub line 0 i, String.trim reason)
         | None -> (n, line, ""))

let roles = [ "oracle"; "fixture builder"; "hook"; "table generator" ]
let test_only = "test-only:"

let test_only_reason reason =
  String.starts_with ~prefix:test_only reason
  &&
  let n = String.length test_only in
  let rest = String.sub reason n (String.length reason - n) |> String.trim in
  List.exists (fun r -> String.starts_with ~prefix:r rest) roles

(* What a declaration has of the use it needs. *)
type status = Used | Test_only | Unused

let () =
  match Array.to_list Sys.argv with
  | _ :: allow :: files ->
      let files =
        List.filter
          (fun f -> Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
          files
      in
      List.iter (fun (u, str) -> scan_uses u str) (List.filter_map load files);
      let found tbl k = if Hashtbl.mem tbl k then Used else Unused in
      (* Each kind of declaration: where they are, what they have, and
         what an unlisted unused one is. *)
      let kinds =
        [
          ( exports,
            (fun k ->
              match Hashtbl.find_opt users k with
              | Some true -> Used
              | Some false -> Test_only
              | None -> Unused),
            "is exported but no other unit uses it; delete it, drop it from \
             the .mli," );
          (fields, found read, "is a field that no unit reads; delete it,");
          (ctors, found built, "is a constructor that no unit builds; delete it,");
        ]
      in
      let by_name = Hashtbl.create 2048 in
      List.iter
        (fun (decls, status, _) ->
          Hashtbl.iter
            (fun k _ -> Hashtbl.replace by_name (display k) (k, status k))
            decls)
        kinds;
      let errors = ref [] in
      let error loc msg = errors := (loc, msg) :: !errors in
      List.iter
        (fun src ->
          if not (Hashtbl.mem typed_sources src) then
            error (src, 1)
              "has no typed tree among the gate's inputs; add its .objs \
               directory to the dead-exports rule in test/dune")
        (sources "lib" @ sources "bin");
      let allowed = Hashtbl.create 64 in
      let roles = String.concat ", " roles in
      List.iter
        (fun (n, name, reason) ->
          let loc = (allow, n) in
          if reason = "" then error loc (name ^ " is listed without a reason")
          else
            match Hashtbl.find_opt by_name name with
            | None ->
                error loc
                  (name
                 ^ " is listed but is not an export, field or constructor")
            | Some (_, Used) ->
                error loc
                  (name ^ " is listed but now has its use; delete the line")
            | Some (k, status) ->
                (* A listed name fails on its line alone. *)
                Hashtbl.replace allowed k ();
                if status = Test_only && not (test_only_reason reason) then
                  error loc
                    (name ^ " is used only from test/; its reason must start \""
                   ^ test_only ^ "\" and name its role (" ^ roles ^ ")")
                else if
                  status = Unused && String.starts_with ~prefix:test_only reason
                then
                  error loc
                    (name ^ " is listed " ^ test_only
                   ^ " but no test uses it; delete it and the line"))
        (read_allowlist allow);
      List.iter
        (fun (decls, status, unused) ->
          Hashtbl.iter
            (fun k loc ->
              if not (Hashtbl.mem allowed k) then
                match status k with
                | Used -> ()
                | Test_only ->
                    error loc
                      (display k
                     ^ " is exported but only test/ uses it; delete it with \
                        the tests that check only it, or list it in " ^ allow
                     ^ " with a reason \"" ^ test_only ^ " ROLE ...\" (" ^ roles
                     ^ ")")
                | Unused ->
                    error loc
                      (display k ^ " " ^ unused ^ " or list it with a reason in "
                     ^ allow))
            decls)
        kinds;
      if !errors = [] then
        Printf.printf
          "dead-exports: OK (%d exports, %d fields, %d constructors, %d \
           allowlisted, %d files)\n"
          (Hashtbl.length exports) (Hashtbl.length fields) (Hashtbl.length ctors)
          (Hashtbl.length allowed) (List.length files)
      else (
        List.iter
          (fun ((file, line), msg) -> Printf.printf "%s:%d: %s\n" file line msg)
          (List.sort compare !errors);
        exit 1)
  | _ ->
      prerr_endline "usage: dead_exports ALLOWLIST FILE.cmt|FILE.cmti ...";
      exit 2
