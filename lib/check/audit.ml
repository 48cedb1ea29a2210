exception Violation of { site : string; detail : string }

let () =
  Printexc.register_printer (function
    | Violation { site; detail } ->
        Some (Printf.sprintf "Audit.Violation at %s: %s" site detail)
    | _ -> None)

let state =
  ref
    (match Sys.getenv_opt "GEACC_AUDIT" with
    | None | Some ("" | "0" | "false") -> false
    | Some _ -> true)

let enabled () = !state
let set_enabled b = state := b

let with_enabled b f =
  let saved = !state in
  state := b;
  Fun.protect ~finally:(fun () -> state := saved) f

let violation_count = ref 0

let violations () = !violation_count

let fail ~site detail =
  incr violation_count;
  raise (Violation { site; detail })

let failf ~site fmt = Printf.ksprintf (fail ~site) fmt

module Flow = struct
  module G = Geacc_flow.Graph

  let check_capacity ~site g =
    G.fold_forward_arcs g ~init:() ~f:(fun () fwd ->
        let bwd = G.rev g fwd in
        let r_fwd = G.residual_capacity g fwd
        and r_bwd = G.residual_capacity g bwd in
        if r_fwd < 0 then
          failf ~site "arc %d has negative residual capacity %d" fwd r_fwd;
        if r_bwd < 0 then
          failf ~site "residual arc %d has negative capacity %d" bwd r_bwd;
        let total = G.initial_capacity g fwd + G.initial_capacity g bwd in
        if r_fwd + r_bwd <> total then
          failf ~site
            "arc pair %d/%d leaks capacity: residual %d + %d <> initial %d"
            fwd bwd r_fwd r_bwd total;
        let fl = G.flow g fwd in
        if fl < 0 || fl > G.initial_capacity g fwd then
          failf ~site "arc %d carries flow %d outside [0, %d]" fwd fl
            (G.initial_capacity g fwd))

  let check_conservation ~site g ~source ~sink =
    let n = G.node_count g in
    let net = Array.make n 0 in
    G.fold_forward_arcs g ~init:() ~f:(fun () a ->
        let fl = G.flow g a in
        net.(G.dst g a) <- net.(G.dst g a) + fl;
        net.(G.src g a) <- net.(G.src g a) - fl);
    for v = 0 to n - 1 do
      if v <> source && v <> sink && net.(v) <> 0 then
        failf ~site "node %d violates conservation: net inflow %d" v net.(v)
    done;
    if source < n && sink < n && net.(source) + net.(sink) <> 0 then
      failf ~site "source deficit %d does not match sink excess %d"
        (-net.(source)) net.(sink)

  let check_csr ~site g =
    let n = G.node_count g and m = G.arc_count g in
    (* Offsets: monotone, starting at 0, covering exactly the arcs. *)
    if n > 0 && G.out_begin g 0 <> 0 then
      failf ~site "CSR offset of node 0 is %d, expected 0" (G.out_begin g 0);
    for v = 0 to n - 1 do
      if G.out_end g v < G.out_begin g v then
        failf ~site "CSR offsets of node %d decrease: [%d, %d)" v
          (G.out_begin g v) (G.out_end g v);
      if v < n - 1 && G.out_end g v <> G.out_begin g (v + 1) then
        failf ~site "CSR offsets leave a gap after node %d: %d <> %d" v
          (G.out_end g v)
          (G.out_begin g (v + 1))
    done;
    if n > 0 && G.out_end g (n - 1) <> m then
      failf ~site "CSR offsets cover %d positions, expected %d arcs"
        (G.out_end g (n - 1))
        m;
    (* Reverse pairing: an involution without fixed points that swaps the
       endpoints, negates the cost and conserves the pair's capacity. *)
    for v = 0 to n - 1 do
      for a = G.out_begin g v to G.out_end g v - 1 do
        let b = G.rev g a in
        if b < 0 || b >= m || b = a then
          failf ~site "arc %d pairs with invalid arc %d" a b;
        if G.rev g b <> a then
          failf ~site "arc %d pairs with %d, which pairs with %d" a b
            (G.rev g b);
        if G.dst g b <> v then
          failf ~site "arc %d leaves node %d but its partner %d enters %d" a v
            b (G.dst g b);
        if G.icost g b <> -G.icost g a then
          failf ~site "arc %d costs %d but its partner %d costs %d" a
            (G.icost g a) b (G.icost g b);
        let r = G.residual_capacity g a + G.residual_capacity g b
        and c = G.initial_capacity g a + G.initial_capacity g b in
        if r <> c then
          failf ~site
            "arc pair %d/%d leaks capacity: residual %d <> initial %d" a b r c
      done
    done

  (* The integer potentials telescope exactly, so there is no slack — any
     negative reduced cost is a bug. *)
  let check_reduced_costs_int ~site g ~potential =
    let m = G.arc_count g in
    for a = 0 to m - 1 do
      if G.residual_capacity g a > 0 then begin
        let rc =
          G.icost g a + potential.(G.src g a) - potential.(G.dst g a)
        in
        if rc < 0 then
          failf ~site "arc %d (%d -> %d) has negative reduced cost %d"
            a (G.src g a) (G.dst g a) rc
      end
    done
end

module Heap = struct
  let check_binary ~site h =
    if not (Geacc_pqueue.Binary_heap.check_invariant h) then
      fail ~site "binary heap order violated"

  let check_bucket ~site q =
    if not (Geacc_pqueue.Int_bucket_queue.check_invariant q) then
      fail ~site "bucket queue placement or size violated"
end
