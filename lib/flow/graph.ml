type arc = int
type edge = int

(* Hot accessors index the per-arc columns through [Geacc_unsafe] under
   stage-4 licences: every licensed index is re-proved by `dune build
   @bounds` from the structural invariants below, which hold from [create]
   on (count = 0, offset zeroed) and are re-established by the one
   [finalize_csr] (seeded for the analyzer, runtime-verified by
   Audit.Flow.check_csr and the construction asserts):

     0 <= count <= |dst_|, |icost_|, |cap_|, |initial_cap|, |rev_|
     |offset| = num_nodes + 1, offset values in [0, count]
     dst_ holds nodes in [0, num_nodes), rev_ arcs in [0, count)

   `--profile safe` compiles the same sites back to checked accesses. *)
module A = Geacc_unsafe

(* Edges staged by [add_arc] before the freeze: four ints per edge (src,
   dst, capacity, icost) in one growable array. *)
type staging = { mutable spec : int array; mutable edges : int }

(* The frozen graph: half-arcs grouped per source node, node [n]'s arcs at
   positions [offset.(n), offset.(n + 1)). [rev_] pairs each half with its
   residual partner; [edge_arc] maps an edge id to its forward half.
   [staging] is [None] once frozen. *)
type t = {
  num_nodes : int;
  mutable staging : staging option;
  mutable count : int;
  offset : int array;               (* num_nodes + 1 *)
  mutable dst_ : int array;
  mutable icost_ : int array;       (* integer cost, negated on partners *)
  mutable cap_ : int array;         (* residual capacity *)
  mutable initial_cap : int array;  (* capacity at the freeze *)
  mutable rev_ : int array;         (* residual partner *)
  mutable edge_arc : int array;     (* edge id -> forward half *)
}

let create ~num_nodes =
  assert (num_nodes >= 0);
  {
    num_nodes;
    staging = Some { spec = [||]; edges = 0 };
    count = 0;
    offset = Array.make (num_nodes + 1) 0;
    dst_ = [||];
    icost_ = [||];
    cap_ = [||];
    initial_cap = [||];
    rev_ = [||];
    edge_arc = [||];
  }

let node_count t = t.num_nodes
let arc_count t = t.count

let stage_of t ~fn =
  match t.staging with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Graph.%s: graph is frozen" fn)

let ensure_capacity s edges =
  let current = Array.length s.spec in
  let needed = 4 * edges in
  if needed > current then begin
    let fresh = Stdlib.max needed (Stdlib.max 64 (2 * current)) in
    s.spec <- Array.append s.spec (Array.make (fresh - current) 0)
  end

let reserve t ~arcs =
  assert (arcs >= 0);
  let s = stage_of t ~fn:"reserve" in
  ensure_capacity s (s.edges + arcs)

let add_arc t ~src ~dst ~capacity ~icost =
  let s = stage_of t ~fn:"add_arc" in
  assert (capacity >= 0);
  assert (src >= 0 && src < t.num_nodes && dst >= 0 && dst < t.num_nodes);
  let e = s.edges in
  ensure_capacity s (e + 1);
  let b = 4 * e in
  s.spec.(b) <- src;
  s.spec.(b + 1) <- dst;
  s.spec.(b + 2) <- capacity;
  s.spec.(b + 3) <- icost;
  s.edges <- e + 1;
  e

(* Degree-counted one-pass construction: count half-arcs by source,
   prefix-sum the counts into the offset table, then scatter the halves in
   descending insertion half-id (edge k's forward half is 2k, its residual
   half 2k+1), so within a node positions hold descending half ids — the
   scan order every pinned flow and fuzz digest was produced with. *)
let finalize_csr t =
  match t.staging with
  | None -> ()
  | Some s ->
      let n = t.num_nodes and edges = s.edges and spec = s.spec in
      let m = 2 * edges in
      let off = t.offset in
      for e = 0 to edges - 1 do
        let u = spec.(4 * e) and v = spec.((4 * e) + 1) in
        off.(u + 1) <- off.(u + 1) + 1;
        off.(v + 1) <- off.(v + 1) + 1
      done;
      for i = 1 to n do
        off.(i) <- off.(i) + off.(i - 1)
      done;
      let cursor = Array.sub off 0 n in
      let dst_ = Array.make m 0 and icost_ = Array.make m 0 in
      let initial_cap = Array.make m 0 and rev_ = Array.make m 0 in
      let edge_arc = Array.make edges 0 in
      for e = edges - 1 downto 0 do
        let b = 4 * e in
        let u = spec.(b) and v = spec.(b + 1) in
        (* Half 2e+1 (residual, v -> u) precedes half 2e (forward). *)
        let pr = cursor.(v) in
        cursor.(v) <- pr + 1;
        let pf = cursor.(u) in
        cursor.(u) <- pf + 1;
        dst_.(pr) <- u;
        icost_.(pr) <- -spec.(b + 3);
        rev_.(pr) <- pf;
        dst_.(pf) <- v;
        icost_.(pf) <- spec.(b + 3);
        initial_cap.(pf) <- spec.(b + 2);
        rev_.(pf) <- pr;
        edge_arc.(e) <- pf
      done;
      t.dst_ <- dst_;
      t.icost_ <- icost_;
      t.cap_ <- Array.copy initial_cap;
      t.initial_cap <- initial_cap;
      t.rev_ <- rev_;
      t.edge_arc <- edge_arc;
      t.count <- m;
      t.staging <- None

let[@inline] check_arc t a =
  assert (a >= 0 && a < t.count)

let arc_of_edge t e = t.edge_arc.(e)

let[@inline] rev t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |rev_| *)
  A.unsafe_get t.rev_ a

let[@inline] dst t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |dst_| *)
  A.unsafe_get t.dst_ a

let[@inline] src t a =
  (* The source of an arc is the destination of its partner. *)
  let b = rev t a in
  (* bounds: proved — b = rev a < count <= |dst_| *)
  A.unsafe_get t.dst_ b

let[@inline] icost t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |icost_| *)
  A.unsafe_get t.icost_ a

let[@inline] residual_capacity t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |cap_| *)
  A.unsafe_get t.cap_ a

let initial_capacity t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |initial_cap| *)
  A.unsafe_get t.initial_cap a

(* bounds: proved — fault-injection hook; check_arc guards a *)
let unsafe_set_residual_capacity t a k =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |cap_| *)
  A.unsafe_set t.cap_ a k

let flow t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |initial_cap|, |cap_| *)
  A.unsafe_get t.initial_cap a - A.unsafe_get t.cap_ a

let[@inline] push t a k =
  let b = rev t a in
  (* bounds: proved — rev's check_arc gives a < count <= |cap_| *)
  let ca = A.unsafe_get t.cap_ a in
  assert (0 <= k && k <= ca);
  (* bounds: proved — rev's check_arc gives a < count <= |cap_| *)
  A.unsafe_set t.cap_ a (ca - k);
  (* bounds: proved — b = rev a < count <= |cap_| *)
  A.unsafe_set t.cap_ b (A.unsafe_get t.cap_ b + k)

let fold_forward_arcs t ~init ~f = Array.fold_left f init t.edge_arc

let[@inline] out_begin t n =
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — |offset| = num_nodes + 1 > n *)
  A.unsafe_get t.offset n

let[@inline] out_end t n =
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — |offset| = num_nodes + 1 > n + 1 - 1 *)
  A.unsafe_get t.offset (n + 1)

(* Raw columns for the stage-4 licensed kernels: the caller indexes arcs
   of [out_begin, out_end) ranges directly, each site under its own
   @bounds licence. *)

(* bounds: proved — returns the whole column; every arc < arc_count fits *)
let[@inline] unsafe_csr_dst t = t.dst_

(* bounds: proved — returns the whole column; every arc < arc_count fits *)
let[@inline] unsafe_csr_icost t = t.icost_

(* bounds: proved — returns the whole column; every arc < arc_count fits *)
let[@inline] unsafe_csr_cap t = t.cap_

let reset_flow t = Array.blit t.initial_cap 0 t.cap_ 0 t.count

let excess t n =
  assert (n >= 0 && n < t.num_nodes);
  fold_forward_arcs t ~init:0 ~f:(fun acc a ->
      let fl = flow t a in
      let acc = if dst t a = n then acc + fl else acc in
      if src t a = n then acc - fl else acc)
