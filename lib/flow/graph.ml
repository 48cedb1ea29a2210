type arc = int

(* Hot accessors index the parallel arrays through [Geacc_unsafe] under
   stage-4 licences: every licensed index is re-proved by `dune build
   @bounds` from the structural invariants below (seeded for the analyzer,
   runtime-verified by Audit.Flow.check_csr and the construction asserts):

     0 <= count <= |next|, |dst_|, |cap_|, |initial_cap|, |icost_|
     head/next hold arc ids in [-1, count), dst_ holds nodes in [0, num_nodes)
     csr_valid  =>  |csr_offset| = num_nodes + 1,
                    count <= |csr_dst|, |csr_icost|, |csr_cap|, |csr_arc|,
                             |arc_pos|,
                    csr_offset values in [0, count],
                    csr_arc/arc_pos a permutation pair of [0, count)

   `--profile safe` compiles the same sites back to checked accesses. *)
module A = Geacc_unsafe

(* Arcs live in parallel growable arrays; arc [a]'s residual partner is
   [a lxor 1]. Adjacency is an intrusive linked list: [head.(n)] is the first
   arc leaving node [n], [next.(a)] the following one, -1 terminates. *)
type t = {
  num_nodes : int;
  head : int array;
  mutable next : int array;
  mutable dst_ : int array;
  mutable cap_ : int array;          (* residual capacity *)
  mutable initial_cap : int array;   (* capacity at creation, for reset/flow *)
  mutable icost_ : int array;        (* integer cost, negated on partners *)
  mutable count : int;
  (* CSR mirror of the arc store, built by [finalize_csr]: positions are
     grouped per source node ([csr_offset]) and hold per-position copies of
     dst/icost plus the residual capacity, so the traversal kernels scan
     contiguous memory instead of chasing [next] links. [csr_arc] maps a
     position back to its arc id and [arc_pos] inverts it; [csr_count] is
     the arc count the mirror was built for (-1 = never built), so adding
     arcs invalidates it while [push] keeps it current in place. *)
  mutable csr_count : int;
  mutable csr_offset : int array;    (* num_nodes + 1 *)
  mutable csr_dst : int array;
  mutable csr_icost : int array;
  mutable csr_cap : int array;
  mutable csr_arc : int array;       (* position -> arc id *)
  mutable arc_pos : int array;       (* arc id -> position *)
}

let create ~num_nodes =
  assert (num_nodes >= 0);
  {
    num_nodes;
    head = Array.make num_nodes (-1);
    next = [||];
    dst_ = [||];
    cap_ = [||];
    initial_cap = [||];
    icost_ = [||];
    count = 0;
    csr_count = -1;
    csr_offset = [||];
    csr_dst = [||];
    csr_icost = [||];
    csr_cap = [||];
    csr_arc = [||];
    arc_pos = [||];
  }

let node_count t = t.num_nodes
let arc_count t = t.count

let ensure_capacity t needed =
  let current = Array.length t.next in
  if needed > current then begin
    let fresh = Stdlib.max needed (Stdlib.max 16 (2 * current)) in
    let grow_int a = Array.append a (Array.make (fresh - current) 0) in
    t.next <- grow_int t.next;
    t.dst_ <- grow_int t.dst_;
    t.cap_ <- grow_int t.cap_;
    t.initial_cap <- grow_int t.initial_cap;
    t.icost_ <- grow_int t.icost_
  end

let reserve t ~arcs =
  assert (arcs >= 0);
  (* Every add_arc consumes two slots (forward + residual partner). *)
  ensure_capacity t (t.count + (2 * arcs))

let add_half t ~src ~dst ~capacity ~icost =
  let a = t.count in
  ensure_capacity t (a + 1);
  t.dst_.(a) <- dst;
  t.cap_.(a) <- capacity;
  t.initial_cap.(a) <- capacity;
  t.icost_.(a) <- icost;
  t.next.(a) <- t.head.(src);
  t.head.(src) <- a;
  t.count <- a + 1;
  a

let add_arc t ~src ~dst ~capacity ~icost =
  assert (capacity >= 0);
  assert (src >= 0 && src < t.num_nodes && dst >= 0 && dst < t.num_nodes);
  let a = add_half t ~src ~dst ~capacity ~icost in
  let (_ : int) = add_half t ~src:dst ~dst:src ~capacity:0 ~icost:(-icost) in
  a

let[@inline] partner a = a lxor 1

let[@inline] check_arc t a =
  assert (a >= 0 && a < t.count)

let[@inline] dst t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |dst_| *)
  A.unsafe_get t.dst_ a

let[@inline] src t a =
  check_arc t a;
  (* The source of an arc is the destination of its partner. *)
  (* bounds: proved — arcs are paired, so partner a < count <= |dst_| *)
  A.unsafe_get t.dst_ (partner a)

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

let[@inline] csr_valid t = t.csr_count = t.count

(* bounds: proved — fault-injection hook; check_arc guards a, mirror write follows arc_pos permutation *)
let unsafe_set_residual_capacity t a k =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |cap_| *)
  A.unsafe_set t.cap_ a k;
  if csr_valid t then
    (* bounds: proved — a < count <= |arc_pos|, arc_pos.(a) < count <= |csr_cap| *)
    A.unsafe_set t.csr_cap (A.unsafe_get t.arc_pos a) k

let flow t a =
  check_arc t a;
  if a land 1 <> 0 then invalid_arg "Graph.flow: residual arc";
  (* bounds: proved — check_arc gives a < count <= |initial_cap| = |cap_| *)
  A.unsafe_get t.initial_cap a - A.unsafe_get t.cap_ a

let[@inline] push t a k =
  check_arc t a;
  assert (0 <= k && k <= t.cap_.(a));
  let b = partner a in
  (* bounds: proved — check_arc gives a < count <= |cap_| *)
  A.unsafe_set t.cap_ a (A.unsafe_get t.cap_ a - k);
  (* bounds: proved — arcs are paired, so b = partner a < count <= |cap_| *)
  A.unsafe_set t.cap_ b (A.unsafe_get t.cap_ b + k);
  if csr_valid t then begin
    (* bounds: proved — a < count <= |arc_pos|, arc_pos.(a) < count <= |csr_cap| *)
    A.unsafe_set t.csr_cap (A.unsafe_get t.arc_pos a) (A.unsafe_get t.cap_ a);
    (* bounds: proved — b < count <= |arc_pos|, arc_pos.(b) < count <= |csr_cap| *)
    A.unsafe_set t.csr_cap (A.unsafe_get t.arc_pos b) (A.unsafe_get t.cap_ b)
  end

(* Closure-free adjacency walk for the hot paths: callers keep one cursor
   in a pre-hoisted ref and step it with [next_out_arc] until -1, instead of
   allocating an [iter_out_arcs] callback per relaxation round. *)
let[@inline] first_out_arc t n =
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — n < num_nodes = |head| *)
  A.unsafe_get t.head n

let[@inline] next_out_arc t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |next| *)
  A.unsafe_get t.next a

let iter_out_arcs t n f =
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — n < num_nodes = |head| *)
  let a = ref (A.unsafe_get t.head n) in
  (* poll: ok — single pass over one node's adjacency list *)
  while !a >= 0 do
    f !a;
    (* [f] may grow the arc store, so the list step stays checked. *)
    a := t.next.(!a)
  done

let fold_forward_arcs t ~init ~f =
  let acc = ref init in
  let a = ref 0 in
  (* poll: ok — single pass over the arc store *)
  while !a < t.count do
    acc := f !acc !a;
    a := !a + 2
  done;
  !acc

(* Degree-counted one-pass construction: count out-degrees, prefix-sum them
   into the offset table, then scatter the arcs. The scatter walks arc ids
   in descending order, so within a node positions hold descending ids —
   exactly the traversal order of the intrusive list ([head] prepends, ids
   grow monotonically) — and every CSR scan visits arcs in the same
   sequence the linked walk did. *)
let finalize_csr t =
  if not (csr_valid t) then begin
    let n = t.num_nodes and m = t.count in
    if Array.length t.csr_offset <> n + 1 then
      t.csr_offset <- Array.make (n + 1) 0
    else Array.fill t.csr_offset 0 (n + 1) 0;
    if Array.length t.csr_arc < m then begin
      t.csr_dst <- Array.make m 0;
      t.csr_icost <- Array.make m 0;
      t.csr_cap <- Array.make m 0;
      t.csr_arc <- Array.make m 0;
      t.arc_pos <- Array.make m 0
    end;
    let off = t.csr_offset in
    for a = 0 to m - 1 do
      (* src of arc [a] is the dst of its partner. *)
      let s = t.dst_.(a lxor 1) in
      off.(s + 1) <- off.(s + 1) + 1
    done;
    for i = 1 to n do
      off.(i) <- off.(i) + off.(i - 1)
    done;
    let cursor = Array.make n 0 in
    Array.blit off 0 cursor 0 n;
    for a = m - 1 downto 0 do
      let s = t.dst_.(a lxor 1) in
      let p = cursor.(s) in
      cursor.(s) <- p + 1;
      t.csr_dst.(p) <- t.dst_.(a);
      t.csr_icost.(p) <- t.icost_.(a);
      t.csr_cap.(p) <- t.cap_.(a);
      t.csr_arc.(p) <- a;
      t.arc_pos.(a) <- p
    done;
    t.csr_count <- m
  end

let[@inline] check_pos t p =
  assert (csr_valid t);
  assert (p >= 0 && p < t.count)

let[@inline] out_begin t n =
  assert (csr_valid t);
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — csr_valid gives |csr_offset| = num_nodes + 1 > n *)
  A.unsafe_get t.csr_offset n

let[@inline] out_end t n =
  assert (csr_valid t);
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — csr_valid gives |csr_offset| = num_nodes + 1 > n + 1 - 1 *)
  A.unsafe_get t.csr_offset (n + 1)

let[@inline] pos_dst t p =
  check_pos t p;
  (* bounds: proved — check_pos gives p < count <= |csr_dst| *)
  A.unsafe_get t.csr_dst p

let[@inline] pos_icost t p =
  check_pos t p;
  (* bounds: proved — check_pos gives p < count <= |csr_icost| *)
  A.unsafe_get t.csr_icost p

let[@inline] pos_residual_capacity t p =
  check_pos t p;
  (* bounds: proved — check_pos gives p < count <= |csr_cap| *)
  A.unsafe_get t.csr_cap p

let[@inline] pos_arc t p =
  check_pos t p;
  (* bounds: proved — check_pos gives p < count <= |csr_arc| *)
  A.unsafe_get t.csr_arc p

let arc_position t a =
  check_arc t a;
  assert (csr_valid t);
  (* bounds: proved — check_arc gives a < count <= |arc_pos| *)
  A.unsafe_get t.arc_pos a

(* Raw CSR slices for the stage-4 licensed kernels: one validity assert at
   fetch time, then the caller indexes positions of [out_begin, out_end)
   ranges directly, each site under its own @bounds licence. The slices
   stay current across [push]/[reset_flow] (in-place updates) and are
   invalidated — like every CSR accessor — by [add_arc]. *)

(* bounds: proved — returns the whole slice; positions < arc_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_dst t =
  assert (csr_valid t);
  t.csr_dst

(* bounds: proved — returns the whole slice; positions < arc_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_icost t =
  assert (csr_valid t);
  t.csr_icost

(* bounds: proved — returns the whole slice; positions < arc_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_cap t =
  assert (csr_valid t);
  t.csr_cap

(* bounds: proved — returns the whole slice; positions < arc_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_arc t =
  assert (csr_valid t);
  t.csr_arc

let reset_flow t =
  Array.blit t.initial_cap 0 t.cap_ 0 t.count;
  if csr_valid t then
    for p = 0 to t.count - 1 do
      (* bounds: proved — p < count <= |csr_cap| = |csr_arc|, csr_arc.(p) < count <= |cap_| *)
      A.unsafe_set t.csr_cap p (A.unsafe_get t.cap_ (A.unsafe_get t.csr_arc p))
    done

let excess t n =
  assert (n >= 0 && n < t.num_nodes);
  fold_forward_arcs t ~init:0 ~f:(fun acc a ->
      let fl = flow t a in
      if t.dst_.(a) = n then acc + fl
      else if t.dst_.(partner a) = n then acc - fl
      else acc)
