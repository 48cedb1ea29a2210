(* geacc_effects — stage 3 of the project analyzer: interprocedural effect
   pass over typedtree (.cmt) artifacts.

   Usage: geacc_effects [--format text|json] DIR...

   Stage 1 (geacc_lint) checks surface hygiene, stage 2 (geacc_analyze)
   checks per-expression properties inside hot loops. This stage computes a
   per-function *effect summary* — polls-budget, raises, allocates-in-loop —
   and closes it over the project call graph with a bounded fixpoint, then
   enforces the solver contract the earlier stages state in prose:

   - [poll-missing]        (P) an outermost while-loop or recursive function
                           under lib/core// lib/flow never reaches
                           [Budget.check] / [Budget.check_now] in its body's
                           call closure, so the loop cannot be cancelled by
                           a deadline.
   - [suppress-no-reason]  a suppression tag with no justification text.
   - [cmt-error]           a [.cmt] the compiler's reader rejects.

   Suppression grammar (on the offending line or the line above):
     (* poll: ok — <reason> *)    for poll-missing
   The reason is mandatory; a bare tag reports suppress-no-reason instead.
   Exit status: 0 clean, 1 diagnostics reported, 2 usage. *)

(* ---------- scopes ---------- *)

(* (P) is scoped to the solver kernels that own deadlines. *)
let poll_markers = [ "lib/core/"; "lib/flow/" ]

let in_poll_scope path =
  List.exists (Lint_core.contains_marker path) poll_markers

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

let tag_of_rule = function "poll-missing" -> "poll" | rule -> rule

let report (loc : Location.t) rule message =
  if not loc.loc_ghost then begin
    let p = loc.loc_start in
    let line = p.pos_lnum and col = p.pos_cnum - p.pos_bol in
    let add rule message =
      diags :=
        { Lint_core.file = p.pos_fname; line; col; rule; message } :: !diags
    in
    let tag = tag_of_rule rule in
    match
      Lint_core.reasoned_tag_status ~tag (source_lines p.pos_fname) line
    with
    | Lint_core.Tag_with_reason -> ()
    | Lint_core.Tag_without_reason ->
        add "suppress-no-reason"
          (Printf.sprintf
             "suppression tag \"%s: ok\" carries no reason; write (* %s: ok \
              — <why this is sound> *)"
             tag tag)
    | Lint_core.No_tag -> add rule message
  end

(* ---------- module / path naming (shared shape with geacc_analyze) ----- *)

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

(* ---------- effect summaries ---------- *)

(* Effects are tracked at top-level definitions; nested closures fold into
   the enclosing definition's summary. [d_*] fields are direct effects from
   this definition's own body, [t_*] the transitive closure over project
   callees. *)
type def = {
  mutable d_refs : (string * string) list;
  mutable d_polls : bool;
  mutable d_raises : bool;
  mutable d_alloc_loop : bool;
  mutable t_polls : bool;
  mutable t_raises : bool;
}

let defs : (string * string, def) Hashtbl.t = Hashtbl.create 256

let budget_poll = function
  | "Budget", ("check" | "check_now") -> true
  | _ -> false

let raising_call = function
  | "Stdlib", ("raise" | "raise_notrace" | "failwith" | "invalid_arg") -> true
  | _ -> false

let raise_prims = [ "%raise"; "%reraise"; "%raise_notrace" ]

(* ---------- per-cmt scan state ---------- *)

(* A poll-coverage obligation: one while-loop or one recursive binding
   group. Compliance is resolved after the fixpoint, so a loop may satisfy
   (P) through any project function it references. *)
type loop_rec = {
  l_loc : Location.t;
  l_file : string;
  l_start : int;
  l_end : int;
  l_kind : string;
  mutable l_poll : bool;
  mutable l_callees : (string * string) list;
}

let loops : loop_rec list ref = ref []

type scan_state = {
  ss_unit : string;
  ss_aliases : (string, string) Hashtbl.t;
  mutable ss_def : def option;
  mutable ss_def_locals : (string, unit) Hashtbl.t;
  mutable ss_loops : loop_rec list; (* open loops, innermost first *)
  mutable ss_loop_depth : int; (* while/for/rec nesting, for alloc bit *)
}

let st_target st path =
  ref_target ~unit_name:st.ss_unit ~aliases:st.ss_aliases path

let bind_ident st id =
  Hashtbl.replace st.ss_def_locals (Ident.unique_name id) ()

let def_local st id = Hashtbl.mem st.ss_def_locals (Ident.unique_name id)

let set_def_polls st =
  match st.ss_def with Some d -> d.d_polls <- true | None -> ()

let set_def_raises st =
  match st.ss_def with Some d -> d.d_raises <- true | None -> ()

let note_loop_poll st =
  List.iter (fun l -> l.l_poll <- true) st.ss_loops

let note_callee st key =
  (match st.ss_def with
  | Some d -> if not (List.mem key d.d_refs) then d.d_refs <- key :: d.d_refs
  | None -> ());
  List.iter
    (fun l -> if not (List.mem key l.l_callees) then l.l_callees <- key :: l.l_callees)
    st.ss_loops

(* ---------- scan ---------- *)

let scan_structure ~unit_name str =
  let st =
    {
      ss_unit = unit_name;
      ss_aliases = Hashtbl.create 8;
      ss_def = None;
      ss_def_locals = Hashtbl.create 64;
      ss_loops = [];
      ss_loop_depth = 0;
    }
  in
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
  let open Tast_iterator in
  (* Walk a binding group as one poll obligation when any right-hand side is
     a function: the group recursion is the loop. *)
  let rec_group it (vbs : Typedtree.value_binding list) =
    let is_fun (vb : Typedtree.value_binding) =
      match vb.vb_expr.exp_desc with
      | Typedtree.Texp_function _ -> true
      | _ -> false
    in
    let file =
      match vbs with
      | vb :: _ -> vb.vb_loc.loc_start.pos_fname
      | [] -> ""
    in
    let wrap body =
      if List.exists is_fun vbs && in_poll_scope file then begin
        let start =
          List.fold_left
            (fun acc (vb : Typedtree.value_binding) ->
              Stdlib.min acc vb.vb_loc.loc_start.pos_cnum)
            max_int vbs
        and stop =
          List.fold_left
            (fun acc (vb : Typedtree.value_binding) ->
              Stdlib.max acc vb.vb_loc.loc_end.pos_cnum)
            min_int vbs
        in
        let names =
          String.concat "/"
            (List.filter_map
               (fun (vb : Typedtree.value_binding) ->
                 match vb.vb_pat.pat_desc with
                 | Typedtree.Tpat_var (id, _) -> Some (Ident.name id)
                 | _ -> None)
               vbs)
        in
        let l =
          {
            l_loc = (List.hd vbs).vb_loc;
            l_file = file;
            l_start = start;
            l_end = stop;
            l_kind = Printf.sprintf "recursive function %s" names;
            l_poll = false;
            l_callees = [];
          }
        in
        loops := l :: !loops;
        st.ss_loops <- l :: st.ss_loops;
        st.ss_loop_depth <- st.ss_loop_depth + 1;
        body ();
        st.ss_loop_depth <- st.ss_loop_depth - 1;
        st.ss_loops <- List.tl st.ss_loops
      end
      else body ()
    in
    wrap (fun () ->
        List.iter (fun vb -> default_iterator.value_binding it vb) vbs)
  in
  let pat : type k. iterator -> k Typedtree.general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> bind_ident st id
    | Typedtree.Tpat_alias (_, id, _) -> bind_ident st id
    | _ -> ());
    default_iterator.pat it p
  in
  let expr it (e : Typedtree.expression) =
    (* Effects and edges carried by a bare identifier reference. Externals
       (Val_prim) never become call-graph edges: a primitive has no project
       summary to propagate. *)
    (match e.exp_desc with
    | Texp_ident (_, _, { val_kind = Types.Val_prim prim; _ }) ->
        if List.mem prim.Primitive.prim_name raise_prims then set_def_raises st
    | Texp_ident (path, _, _) -> (
        match st_target st path with
        | None -> ()
        | Some key ->
            (match path with
            | Path.Pident id when def_local st id -> ()
            | _ -> note_callee st key);
            if budget_poll key then begin
              set_def_polls st;
              note_loop_poll st
            end;
            if raising_call key then set_def_raises st)
    | _ -> ());
    (* Allocation-in-loop summary bit (informational; geacc_analyze owns the
       per-site diagnostics). *)
    (if st.ss_loop_depth > 0 then
       match e.exp_desc with
       | Texp_tuple _ | Texp_record _ | Texp_array (_ :: _) | Texp_function _
       | Texp_lazy _ ->
           (match st.ss_def with
           | Some d -> d.d_alloc_loop <- true
           | None -> ())
       | _ -> ());
    match e.exp_desc with
    | Texp_while (cond, body) ->
        let file = e.exp_loc.loc_start.pos_fname in
        let with_loop body_f =
          if in_poll_scope file then begin
            let l =
              {
                l_loc = e.exp_loc;
                l_file = file;
                l_start = e.exp_loc.loc_start.pos_cnum;
                l_end = e.exp_loc.loc_end.pos_cnum;
                l_kind = "while loop";
                l_poll = false;
                l_callees = [];
              }
            in
            loops := l :: !loops;
            st.ss_loops <- l :: st.ss_loops;
            body_f ();
            st.ss_loops <- List.tl st.ss_loops
          end
          else body_f ()
        in
        st.ss_loop_depth <- st.ss_loop_depth + 1;
        with_loop (fun () ->
            it.expr it cond;
            it.expr it body);
        st.ss_loop_depth <- st.ss_loop_depth - 1
    | Texp_for (id, _, lo, hi, _, body) ->
        bind_ident st id;
        it.expr it lo;
        it.expr it hi;
        st.ss_loop_depth <- st.ss_loop_depth + 1;
        it.expr it body;
        st.ss_loop_depth <- st.ss_loop_depth - 1
    | Texp_let (Recursive, vbs, body) ->
        rec_group it vbs;
        it.expr it body
    | _ -> default_iterator.expr it e
  in
  let structure_item it (si : Typedtree.structure_item) =
    match si.str_desc with
    | Tstr_value (rf, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let name =
              match vb.vb_pat.pat_desc with
              | Typedtree.Tpat_var (id, _) -> Ident.name id
              | _ -> Printf.sprintf "(top:%d)" vb.vb_loc.loc_start.pos_lnum
            in
            let d =
              {
                d_refs = [];
                d_polls = false;
                d_raises = false;
                d_alloc_loop = false;
                t_polls = false;
                t_raises = false;
              }
            in
            if not (Hashtbl.mem defs (unit_name, name)) then
              Hashtbl.add defs (unit_name, name) d;
            let saved_def = st.ss_def and saved_locals = st.ss_def_locals in
            st.ss_def <- Some d;
            st.ss_def_locals <- Hashtbl.create 64;
            (match rf with
            | Asttypes.Recursive -> rec_group it [ vb ]
            | Asttypes.Nonrecursive -> it.expr it vb.vb_expr);
            st.ss_def <- saved_def;
            st.ss_def_locals <- saved_locals)
          vbs
    | _ -> default_iterator.structure_item it si
  in
  let it = { default_iterator with expr; pat; structure_item } in
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

(* ---------- bounded interprocedural fixpoint ---------- *)

(* Propagates polls-budget and raises through the project call graph. The iteration count is bounded by the graph's
   longest acyclic chain; the explicit cap keeps a pathological (or
   adversarial) graph from stalling the build, at worst under-reporting
   transitive effects. *)
let fixpoint_bound = 64

let run_fixpoint () =
  let changed = ref true and iters = ref 0 in
  while !changed && !iters < fixpoint_bound do
    changed := false;
    incr iters;
    Hashtbl.iter
      (fun key d ->
        List.iter
          (fun callee ->
            match Hashtbl.find_opt defs callee with
            | None -> ()
            | Some c ->
                if (not d.t_polls) && (c.d_polls || c.t_polls) then begin
                  d.t_polls <- true;
                  changed := true
                end;
                if (not d.t_raises) && (c.d_raises || c.t_raises) then begin
                  d.t_raises <- true;
                  changed := true
                end)
          d.d_refs;
        ignore key)
      defs
  done

(* ---------- resolution: poll coverage (P) ---------- *)

(* Only outermost obligations are examined: a loop nested inside another
   collected loop is covered by the outer loop's verdict (its poll, its tag,
   or its diagnostic). *)
let resolve_loops () =
  let all = !loops in
  let contains a b =
    (* strict containment, same file *)
    String.equal a.l_file b.l_file
    && a.l_start <= b.l_start && b.l_end <= a.l_end
    && (a.l_start < b.l_start || b.l_end < a.l_end)
  in
  List.iter
    (fun l ->
      let nested = List.exists (fun outer -> contains outer l) all in
      if not nested then begin
        let compliant =
          l.l_poll
          || List.exists
               (fun key ->
                 match Hashtbl.find_opt defs key with
                 | Some c -> c.d_polls || c.t_polls
                 | None -> false)
               l.l_callees
        in
        if not compliant then
          report l.l_loc "poll-missing"
            (Printf.sprintf
               "this %s never reaches Budget.check/check_now in its call \
                closure, so a deadline cannot cancel it; poll the budget or \
                tag (* poll: ok — <reason> *)"
               l.l_kind)
      end)
    all

(* ---------- debug summary dump ---------- *)

(* GEACC_EFFECTS_SUMMARY=1 prints the closed per-function lattice element —
   the full three-component summary, including the bits no rule consumes yet
   (raises, allocates-in-loop) — for rule debugging and for eyeballing what
   a future rule would see. *)
let dump_summaries () =
  let rows =
    Hashtbl.fold (fun (m, n) d acc -> ((m, n), d) :: acc) defs []
  in
  let rows =
    List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) rows
  in
  List.iter
    (fun ((m, n), d) ->
      Printf.eprintf "%s.%s: polls=%b raises=%b alloc_in_loop=%b\n" m n
        (d.d_polls || d.t_polls)
        (d.d_raises || d.t_raises)
        d.d_alloc_loop)
    rows

(* ---------- driver ---------- *)

let () =
  let rules = [ "poll-missing"; "suppress-no-reason"; "cmt-error" ] in
  let format, roots =
    Lint_core.parse_argv ~tool:"geacc_effects" ~rules Sys.argv
  in
  let skip_dir name = String.equal name ".git" in
  let files = List.concat_map (fun r -> Lint_core.walk ~skip_dir r []) roots in
  let cmts =
    List.sort_uniq String.compare
      (List.filter (fun f -> Filename.check_suffix f ".cmt") files)
  in
  List.iter scan_cmt cmts;
  run_fixpoint ();
  (match Sys.getenv_opt "GEACC_EFFECTS_SUMMARY" with
  | Some "1" -> dump_summaries ()
  | _ -> ());
  resolve_loops ();
  let deduped = List.sort_uniq Stdlib.compare !diags in
  exit (Lint_core.emit ~format ~tool:"geacc_effects" deduped)
