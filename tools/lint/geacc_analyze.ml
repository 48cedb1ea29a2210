(* geacc_analyze — stage 2 of the project analyzer: typedtree (.cmt) pass.

   Usage: geacc_analyze [--format text|json] DIR...

   Walks the given directories for [.cmt] files (dune writes them under
   [.objs/byte] / [.eobjs/byte]; [dune build @analyze] wires this up) and
   runs three rule families the parsetree stage (geacc_lint) cannot see,
   because they need types, resolved paths, or the cross-module view:

   - [hot-loop-alloc]     per-iteration allocation inside the hot loops —
                          [while]/[for] bodies and [let rec] function bodies
                          of the hot-path modules (lib/flow, lib/pqueue,
                          lib/index): tuple/record/array/constructor
                          and polymorphic-variant blocks, closures, partial
                          applications, lazy blocks, ref cells, let-bound
                          floats boxed by a non-[@inline] call, and
                          polymorphic-compare uses whose instantiated type
                          the compiler cannot specialize.
   - [unsafe-reachable]   cross-module call-graph reachability: any
                          [unsafe_*] function reachable from code under
                          [lib/] or [bin/] outside [lib/check] (the audit
                          layer owns deliberate corruption; everything else
                          must go through checked APIs).
   - [missing-inline]     advisory: a definition of at most five lines is
                          called from a flagged hot loop but carries no
                          [@inline] (reported once, at the definition).
   - [cmt-error]          a [.cmt] the compiler's reader rejects.

   A diagnostic is suppressed by the tag [alloc: ok] in a comment on the
   offending line or the line above (the tag grammar is shared with
   geacc_lint's [lint: ok] — see Lint_core.suppressed). Exit status:
   0 clean, 1 diagnostics reported, 2 usage. *)

(* The hot-loop rule is scoped to the paper's inner-loop modules; the
   reachability rule is scoped to all library and binary code. *)
let hot_markers = [ "lib/flow/"; "lib/pqueue/"; "lib/index/" ]
let scope_markers = [ "lib/"; "bin/" ]
let trusted_markers = [ "lib/check/" ]
let suppression_tags = [ "alloc" ]
let inline_advisory_max_lines = 5

let is_hot path = List.exists (Lint_core.contains_marker path) hot_markers
let in_scope path = List.exists (Lint_core.contains_marker path) scope_markers
let is_trusted path = List.exists (Lint_core.contains_marker path) trusted_markers
let is_unsafe_name name =
  String.length name >= 7 && String.equal (String.sub name 0 7) "unsafe_"

(* ---------- diagnostics ---------- *)

let diags : Lint_core.diagnostic list ref = ref []

let lines_cache : (string, string array) Hashtbl.t = Hashtbl.create 32

let source_lines file =
  match Hashtbl.find_opt lines_cache file with
  | Some l -> l
  | None ->
      let l = try snd (Lint_core.read_lines file) with Sys_error _ -> [||] in
      Hashtbl.replace lines_cache file l;
      l

let report (loc : Location.t) rule message =
  if not loc.loc_ghost then begin
    let p = loc.loc_start in
    let line = p.pos_lnum and col = p.pos_cnum - p.pos_bol in
    if
      not
        (Lint_core.suppressed ~tags:suppression_tags
           (source_lines p.pos_fname) line)
    then
      diags :=
        { Lint_core.file = p.pos_fname; line; col; rule; message } :: !diags
  end

(* ---------- module / path naming ---------- *)

(* "Geacc_flow__Graph" -> "Graph", "Dune__exe__Geacc_cli" -> "Geacc_cli":
   strip everything up to the last "__" so wrapped-library prefixes and
   dune's executable mangling never leak into call-graph keys. *)
let norm_unit m =
  let n = String.length m in
  let rec find i =
    if i < 0 then None
    else if m.[i] = '_' && m.[i + 1] = '_' then Some (i + 2)
    else find (i - 1)
  in
  match if n < 2 then None else find (n - 2) with
  | Some i -> String.sub m i (n - i)
  | None -> m

(* A value reference as a (module, name) call-graph key. [Pident] is a
   same-unit (or local) name; [Pdot] a cross-module access, keyed by the
   last module component so both an alias path (Geacc_flow.Graph.icost)
   and a mangled direct path (Geacc_flow__Graph.icost) land on "Graph".
   [aliases] maps the unit's own module aliases (module Q =
   Geacc_pqueue.Int_bucket_queue) to the real unit name. *)
let ref_target ~unit_name ~aliases path =
  match path with
  | Path.Pident id -> Some (unit_name, Ident.name id)
  | Path.Pdot (m, name) ->
      let base = norm_unit (Path.last m) in
      let base =
        match Hashtbl.find_opt aliases base with
        | Some real -> real
        | None -> base
      in
      Some (base, name)
  | _ -> None

(* ---------- call graph ---------- *)

type def = {
  d_unit : string;
  d_name : string;
  d_file : string;
  d_loc : Location.t;
  d_lines : int;
  d_inline : bool;
  mutable d_refs : (string * string * Location.t) list;
}

let defs : (string * string, def) Hashtbl.t = Hashtbl.create 256

(* Deferred findings that need the finished definition table: [@inline]
   advisories (is the callee small and un-annotated?) and boxed-float
   bindings (an [@inline] callee is assumed to unbox after inlining). *)
type pending =
  | Advisory of {
      target : (string * string) option;
      caller : (string * string) option;
      site : Location.t;
    }
  | Boxed_float of {
      target : (string * string) option;
      display : string;
      site : Location.t;
    }

let pendings : pending list ref = ref []

(* ---------- typedtree helpers ---------- *)

let has_inline_attr (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "inline" | "ocaml.inline" -> true
      | _ -> false)
    attrs

let rec pat_var_name (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some (Ident.name id)
  | Typedtree.Tpat_alias (p, _, _) -> pat_var_name p
  | _ -> None

let loc_eq (a : Location.t) (b : Location.t) =
  a.loc_start.pos_cnum = b.loc_start.pos_cnum
  && a.loc_end.pos_cnum = b.loc_end.pos_cnum
  && String.equal a.loc_start.pos_fname b.loc_start.pos_fname

let is_float_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

(* Types at which the compiler specializes the polymorphic comparison
   primitives away from the generic runtime fallback. *)
let cmp_specializable ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      List.exists (Path.same p)
        [
          Predef.path_int;
          Predef.path_char;
          Predef.path_bool;
          Predef.path_unit;
          Predef.path_float;
          Predef.path_string;
          Predef.path_bytes;
          Predef.path_int32;
          Predef.path_int64;
          Predef.path_nativeint;
        ]
  | _ -> false

let cmp_arg_type fn_ty =
  match Types.get_desc fn_ty with
  | Types.Tarrow (_, t1, _, _) -> Some t1
  | _ -> None

(* The typer wraps an argument [e] passed to an optional parameter as
   [Some e] sharing [e]'s exact location; a [Some] the programmer wrote
   strictly contains its payload. Only the former is skipped. *)
let is_optional_arg_wrap (e : Typedtree.expression)
    (cd : Types.constructor_description) args =
  String.equal cd.Types.cstr_name "Some"
  &&
  match args with
  | [ (a : Typedtree.expression) ] -> loc_eq e.Typedtree.exp_loc a.exp_loc
  | _ -> false

(* ---------- per-cmt scan ---------- *)

type scan_state = {
  ss_unit : string;
  ss_aliases : (string, string) Hashtbl.t; (* module alias -> real unit *)
  mutable ss_defs : def list; (* stack: innermost enclosing definition *)
  mutable ss_loop : int; (* while/for/let-rec nesting depth *)
}

let st_target st path =
  ref_target ~unit_name:st.ss_unit ~aliases:st.ss_aliases path

let alloc loc message = report loc "hot-loop-alloc" message

(* The leading Texp_function spine of a recursive binding is the function's
   own parameter list — allocated once at the binding, not once per
   recursive call — so only the spine's leaf bodies (and guards) are
   hot-loop contexts. *)
let rec walk_rec_body st (it : Tast_iterator.iterator)
    (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun (c : _ Typedtree.case) ->
          (match c.c_guard with
          | Some g ->
              st.ss_loop <- st.ss_loop + 1;
              it.expr it g;
              st.ss_loop <- st.ss_loop - 1
          | None -> ());
          walk_rec_body st it c.c_rhs)
        cases
  | _ ->
      st.ss_loop <- st.ss_loop + 1;
      it.expr it e;
      st.ss_loop <- st.ss_loop - 1

let check_apply st (e : Typedtree.expression) (f : Typedtree.expression) args
    =
  let partial_by_label = List.exists (fun (_, a) -> a = None) args in
  let arrow_result =
    match Types.get_desc e.exp_type with
    | Types.Tarrow _ -> true
    | _ -> false
  in
  if partial_by_label || arrow_result then
    alloc e.exp_loc
      "partial application allocates a closure on every iteration of this \
       hot loop; pass all arguments or hoist it";
  match f.exp_desc with
  | Texp_ident (path, _, vd) -> (
      match vd.Types.val_kind with
      | Types.Val_prim prim -> (
          match prim.Primitive.prim_name with
          | "%makemutable" ->
              alloc f.exp_loc
                "a ref cell is allocated on every iteration of this hot \
                 loop; hoist the ref out of the loop"
          | "%compare" | "%equal" | "%notequal" | "%lessthan" | "%lessequal"
          | "%greaterthan" | "%greaterequal" -> (
              match cmp_arg_type f.exp_type with
              | Some t1 when not (cmp_specializable t1) ->
                  alloc f.exp_loc
                    "polymorphic comparison cannot be specialized at this \
                     type and falls back to the generic runtime; use a \
                     monomorphic comparison"
              | _ -> ())
          | _ -> ())
      | _ -> (
          let target = st_target st path in
          (match target with
          | Some ("Stdlib", (("min" | "max") as n)) ->
              alloc f.exp_loc
                (Printf.sprintf
                   "Stdlib.%s compares with the polymorphic runtime; use \
                    Int.%s / Float.%s (or an explicit if)"
                   n n n)
          | _ -> ());
          let caller =
            match st.ss_defs with
            | d :: _ -> Some (d.d_unit, d.d_name)
            | [] -> None
          in
          pendings :=
            Advisory { target; caller; site = f.exp_loc } :: !pendings))
  | _ -> ()

let check_hot_expr st (e : Typedtree.expression) =
  let loc = e.exp_loc in
  match e.exp_desc with
  | Texp_tuple _ ->
      alloc loc
        "a tuple is allocated on every iteration of this hot loop; return \
         components separately or tag (* alloc: ok *)"
  | Texp_construct (_, cd, args)
    when args <> [] && not (is_optional_arg_wrap e cd args) ->
      alloc loc
        (Printf.sprintf
           "constructor %s allocates a block on every iteration of this \
            hot loop"
           cd.Types.cstr_name)
  | Texp_variant (_, Some _) ->
      alloc loc
        "a polymorphic-variant block is allocated on every iteration of \
         this hot loop"
  | Texp_record _ ->
      alloc loc
        "a record is allocated on every iteration of this hot loop"
  | Texp_array (_ :: _) ->
      alloc loc
        "an array is allocated on every iteration of this hot loop"
  | Texp_function _ ->
      alloc loc
        "a closure is allocated on every iteration of this hot loop; hoist \
         it out of the loop or iterate without a callback"
  | Texp_lazy _ ->
      alloc loc
        "a lazy block is allocated on every iteration of this hot loop"
  | Texp_apply (f, args) -> check_apply st e f args
  | _ -> ()

(* A float-typed binding whose right-hand side is a call to an ordinary
   (non-primitive) function: the callee returns a boxed float, and unless
   it is [@inline] the box survives the binding. Resolved after the
   definition table is complete. *)
let check_boxed_float st (vb : Typedtree.value_binding) =
  if is_float_type vb.vb_pat.pat_type then
    match vb.vb_expr.exp_desc with
    | Texp_apply
        ( { exp_desc = Texp_ident (path, _, { val_kind = Types.Val_reg; _ });
            _ },
          _ )
      when is_float_type vb.vb_expr.exp_type ->
        pendings :=
          Boxed_float
            {
              target = st_target st path;
              display = Path.name path;
              site = vb.vb_loc;
            }
          :: !pendings
    | _ -> ()

let scan_structure ~unit_name str =
  let st =
    {
      ss_unit = unit_name;
      ss_aliases = Hashtbl.create 8;
      ss_defs = [];
      ss_loop = 0;
    }
  in
  (* Module aliases are bound before any use in well-typed code, but collect
     them in a first pass anyway so reference normalisation cannot depend on
     item order. *)
  List.iter
    (fun (si : Typedtree.structure_item) ->
      match si.str_desc with
      | Tstr_module
          { mb_id = Some id; mb_expr = { mod_desc = Tmod_ident (p, _); _ }; _ }
        ->
          Hashtbl.replace st.ss_aliases (Ident.name id)
            (norm_unit (Path.last p))
      | _ -> ())
    str.Typedtree.str_items;
  let record_edge path (vd : Types.value_description) loc =
    match st.ss_defs with
    | [] -> ()
    | d :: _ -> (
        match vd.Types.val_kind with
        | Types.Val_prim _ -> ()
        | _ -> (
            match st_target st path with
            | Some (m, name) -> d.d_refs <- (m, name, loc) :: d.d_refs
            | None -> ()))
  in
  let open Tast_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (path, _, vd) -> record_edge path vd e.exp_loc
    | _ -> ());
    if st.ss_loop > 0 && is_hot e.exp_loc.loc_start.pos_fname then
      check_hot_expr st e;
    match e.exp_desc with
    | Texp_while (cond, body) ->
        (* The condition re-evaluates on every iteration, so it is loop
           context too (unlike a for-loop's bounds, evaluated once). *)
        st.ss_loop <- st.ss_loop + 1;
        it.expr it cond;
        it.expr it body;
        st.ss_loop <- st.ss_loop - 1
    | Texp_for (_, _, lo, hi, _, body) ->
        it.expr it lo;
        it.expr it hi;
        st.ss_loop <- st.ss_loop + 1;
        it.expr it body;
        st.ss_loop <- st.ss_loop - 1
    | Texp_let (Recursive, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) -> walk_rec_body st it vb.vb_expr)
          vbs;
        it.expr it body
    | _ -> default_iterator.expr it e
  in
  let value_binding it (vb : Typedtree.value_binding) =
    if st.ss_loop > 0 && is_hot vb.vb_loc.loc_start.pos_fname then
      check_boxed_float st vb;
    default_iterator.value_binding it vb
  in
  let structure_item it (si : Typedtree.structure_item) =
    match si.str_desc with
    | Tstr_value (rf, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let name =
              match pat_var_name vb.vb_pat with
              | Some n -> n
              | None ->
                  Printf.sprintf "(top:%d)" vb.vb_loc.loc_start.pos_lnum
            in
            let d =
              {
                d_unit = unit_name;
                d_name = name;
                d_file = vb.vb_loc.loc_start.pos_fname;
                d_loc = vb.vb_loc;
                d_lines =
                  vb.vb_loc.loc_end.pos_lnum - vb.vb_loc.loc_start.pos_lnum
                  + 1;
                d_inline = has_inline_attr vb.vb_attributes;
                d_refs = [];
              }
            in
            if not (Hashtbl.mem defs (unit_name, name)) then
              Hashtbl.add defs (unit_name, name) d;
            st.ss_defs <- d :: st.ss_defs;
            (match rf with
            | Asttypes.Recursive -> walk_rec_body st it vb.vb_expr
            | Asttypes.Nonrecursive -> it.expr it vb.vb_expr);
            st.ss_defs <- List.tl st.ss_defs)
          vbs
    | _ -> default_iterator.structure_item it si
  in
  let it = { default_iterator with expr; value_binding; structure_item } in
  it.structure it str

let scan_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ ->
      diags :=
        {
          Lint_core.file = path;
          line = 1;
          col = 0;
          rule = "cmt-error";
          message = "the compiler's cmt reader rejects this file";
        }
        :: !diags
  | cmt -> (
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          scan_structure ~unit_name:(norm_unit cmt.cmt_modname) str
      | _ -> ())

(* ---------- resolution: advisories, boxed floats ---------- *)

let resolve_pendings () =
  let advised = Hashtbl.create 16 in
  List.iter
    (function
      | Advisory { target = Some key; caller; site } -> (
          match Hashtbl.find_opt defs key with
          | Some d
            when (not d.d_inline)
                 && d.d_lines <= inline_advisory_max_lines
                 && caller <> Some key
                 && not (Hashtbl.mem advised key) ->
              Hashtbl.replace advised key ();
              report d.d_loc "missing-inline"
                (Printf.sprintf
                   "%s.%s (%d lines) is called from a hot loop at %s:%d but \
                    carries no [@inline]; add [@inline] (and [@unboxed] on \
                    any single-field wrapper it involves)"
                   (fst key) (snd key) d.d_lines site.loc_start.pos_fname
                   site.loc_start.pos_lnum)
          | _ -> ())
      | Advisory _ -> ()
      | Boxed_float { target; display; site } ->
          let callee_inlined =
            match target with
            | Some key -> (
                match Hashtbl.find_opt defs key with
                | Some d -> d.d_inline
                | None -> false)
            | None -> false
          in
          if not callee_inlined then
            report site "hot-loop-alloc"
              (Printf.sprintf
                 "the float returned by %s is boxed when let-bound in a hot \
                  loop; mark the callee [@inline], inline the computation, \
                  or tag (* alloc: ok *)"
                 display))
    !pendings

(* ---------- resolution: unsafe reachability ---------- *)

(* Breadth-first over the call graph from every definition under lib/ or
   bin/ outside lib/check. Definitions owned by lib/check are trusted and
   not expanded; a traversed cross-module edge to an [unsafe_*] name is a
   violation (same-module uses are the defining module's own business). *)
let check_unsafe_reachability () =
  let queue = Queue.create () in
  let seen = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key d ->
      if in_scope d.d_file && not (is_trusted d.d_file) then begin
        Hashtbl.replace seen key ();
        Queue.add d queue
      end)
    defs;
  (* A call site carrying a stage-4 bounds licence is exempt: geacc_bounds
     owns re-proving (or rejecting) the licence on every @bounds run, so
     flagging it here would force a second, redundant exemption channel. *)
  let bounds_licensed (loc : Location.t) =
    let p = loc.loc_start in
    match
      Lint_core.reasoned_marker_status ~marker:"bounds: proved"
        (source_lines p.pos_fname) p.pos_lnum
    with
    | Lint_core.Tag_with_reason, _ -> true
    | _ -> false
  in
  while not (Queue.is_empty queue) do
    let d = Queue.pop queue in
    List.iter
      (fun (m, name, loc) ->
        if
          is_unsafe_name name
          && (not (String.equal m d.d_unit))
          && not (bounds_licensed loc)
        then
          report loc "unsafe-reachable"
            (Printf.sprintf
               "%s.%s is reachable from %s.%s, outside lib/check; only the \
                audit layer may use unsafe APIs"
               m name d.d_unit d.d_name)
        else
          match Hashtbl.find_opt defs (m, name) with
          | Some callee
            when (not (is_trusted callee.d_file))
                 && not (Hashtbl.mem seen (m, name)) ->
              Hashtbl.replace seen (m, name) ();
              Queue.add callee queue
          | _ -> ())
      d.d_refs
  done

(* ---------- driver ---------- *)

let () =
  let rules =
    [ "hot-loop-alloc"; "unsafe-reachable"; "missing-inline"; "cmt-error" ]
  in
  let format, roots =
    Lint_core.parse_argv ~tool:"geacc_analyze" ~rules Sys.argv
  in
  let skip_dir name = String.equal name ".git" in
  let files = List.concat_map (fun r -> Lint_core.walk ~skip_dir r []) roots in
  let cmts =
    List.sort_uniq String.compare
      (List.filter (fun f -> Filename.check_suffix f ".cmt") files)
  in
  List.iter scan_cmt cmts;
  resolve_pendings ();
  check_unsafe_reachability ();
  let deduped = List.sort_uniq Stdlib.compare !diags in
  exit (Lint_core.emit ~format ~tool:"geacc_analyze" deduped)
