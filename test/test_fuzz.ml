(* Differential fuzzing across all solvers.

   ~200 seeded random instances (sizes small enough for the exact searches),
   every [Solver.algorithm] on each. Invariants checked per instance:

   - every algorithm's matching passes the independent [Validate] check;
   - the exact solvers agree with each other and dominate every
     approximation/baseline on MaxSum;
   - the heap greedy and the sort-all-pairs naive greedy oracle
     ([Greedy_naive]) produce identical arrangements.

   Deterministic: instance shapes are derived from a seeded RNG, and every
   solver consumes a freshly-seeded RNG of its own. *)

open Geacc_core
module Synthetic = Geacc_datagen.Synthetic
module Rng = Geacc_util.Rng

let n_instances = 200

let config_of rng =
  {
    Synthetic.default with
    Synthetic.n_events = Rng.int_in rng 2 4;
    n_users = Rng.int_in rng 3 8;
    dim = Rng.int_in rng 1 3;
    t_max = 100.;
    event_capacity = Synthetic.Cap_uniform (Rng.int_in rng 1 3);
    user_capacity = Synthetic.Cap_uniform (Rng.int_in rng 1 2);
    conflict_ratio = Rng.float rng 0.6;
  }

let exact = [ Solver.Prune; Solver.Exhaustive ]

(* GEACC_FUZZ_DIGEST=<path>: write a canonical digest of the sweep — per
   seed and solver, MaxSum as exact float bits plus the matched pairs.
   The safe/default profile differential CI job runs the sweep once per
   profile and byte-compares the two files: licensed unsafe_* kernels and
   their checked `--profile safe` twins must produce identical
   arrangements, not merely close objectives. *)
let digest_out = Sys.getenv_opt "GEACC_FUZZ_DIGEST"
let digest_buf = Buffer.create 256

let record_digest ~seed results =
  match digest_out with
  | None -> ()
  | Some _ ->
      List.iter
        (fun (a, m) ->
          Buffer.add_string digest_buf
            (Printf.sprintf "%d %s %Lx |%s\n" seed (Solver.short_name a)
               (Int64.bits_of_float (Matching.maxsum m))
               (String.concat ";"
                  (List.map
                     (fun (v, u) -> Printf.sprintf "%d,%d" v u)
                     (Matching.pairs m)))))
        results

let write_digest () =
  match digest_out with
  | None -> ()
  | Some path ->
      let oc = open_out_bin path in
      output_string oc (Buffer.contents digest_buf);
      close_out oc

let check_instance ~seed t =
  let label a = Printf.sprintf "seed %d %s" seed (Solver.short_name a) in
  let results =
    List.map
      (fun a ->
        let rng = Rng.create ~seed:(seed + 7919) in
        let m = Solver.run ~rng a t in
        (a, m))
      Solver.all
  in
  record_digest ~seed results;
  (* 1. Feasibility, for every algorithm. *)
  List.iter
    (fun (a, m) ->
      match Validate.check_matching m with
      | [] -> ()
      | violations ->
          Alcotest.failf "%s: %d feasibility violations" (label a)
            (List.length violations))
    results;
  (* 2. The exact solvers agree and dominate everything else. *)
  let maxsum a = Matching.maxsum (List.assoc a results) in
  let opt = maxsum Solver.Prune in
  Alcotest.(check (float 1e-6))
    (Printf.sprintf "seed %d: prune = exhaustive" seed)
    opt
    (maxsum Solver.Exhaustive);
  List.iter
    (fun (a, m) ->
      if not (List.mem a exact) then
        let got = Matching.maxsum m in
        if got > opt +. 1e-6 then
          Alcotest.failf "%s: beats the optimum (%.9f > %.9f)" (label a) got
            opt)
    results;
  (* 3. Identical greedy arrangements, not just equal objectives. *)
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "seed %d: greedy = naive greedy" seed)
    (Matching.pairs (List.assoc Solver.Greedy results))
    (Matching.pairs (Greedy_naive.solve t))

let test_differential () =
  let shape_rng = Rng.create ~seed:20150413 in
  for seed = 1 to n_instances do
    let t = Synthetic.generate ~seed (config_of shape_rng) in
    check_instance ~seed t
  done;
  write_digest ()

(* ---------- the SSP kernel against the textbook oracle ---------- *)

(* [Ssp_oracle] solves the paper's dense network (one arc per (v,u) pair,
   zero-similarity pairs at cost exactly 1) with a float Bellman–Ford SSP
   on the same 2^30 grid; [Mincostflow] solves the similarity-pruned
   network with the integer kernel. Per instance the two must agree on
   the flow value, on the flow cost to the bit, and on MaxSum within
   1e-6: the optimum is unique, but among exactly tied min-cost flows the
   two searches may route different pairs, so MaxSum after conflict
   resolution is only tie-equivalent. Instances come in two flavours:
   Equation-1 similarity (zero only at the attribute-space diameter, so
   nothing prunes) and a re-wrap of the same entities under a range/4
   Equation-1 similarity, which drives a large fraction of pairs to
   similarity exactly 0 and makes the pruning path do real work. *)
let tighten instance =
  Instance.create
    ~sim:
      (Similarity.euclidean ~dim:(Instance.dim instance)
         ~range:(Synthetic.default.Synthetic.t_max /. 4.))
    ~events:(Instance.events instance)
    ~users:(Instance.users instance)
    ~conflicts:(Instance.conflicts instance)
    ()

let check_against_oracle ~label instance =
  let oracle = Ssp_oracle.mincostflow instance in
  let m, stats = Mincostflow.solve_with_stats instance in
  (match Validate.check_matching m with
  | [] -> ()
  | violations ->
      Alcotest.failf "%s: %d violations" label (List.length violations));
  Alcotest.(check int)
    (label ^ ": flow value")
    oracle.Ssp_oracle.flow_value stats.Mincostflow.flow_value;
  Alcotest.(check int64)
    (label ^ ": flow cost bits")
    (Int64.bits_of_float oracle.Ssp_oracle.flow_cost)
    (Int64.bits_of_float stats.Mincostflow.flow_cost);
  Alcotest.(check (float 1e-6))
    (label ^ ": maxsum")
    (Matching.maxsum oracle.Ssp_oracle.matching)
    (Matching.maxsum m);
  stats

(* Per attribute model (uniform / Zipf / normal mixture): the pruned
   network must never hold more pair arcs than the dense one, and the sweep
   must actually prune somewhere. *)
let test_dense_sparse_identical () =
  let attr_models =
    [
      ("uniform", Synthetic.Attr_uniform);
      ("zipf", Synthetic.Attr_zipf 1.3);
      ("normal", Synthetic.Attr_normal_mixture);
    ]
  in
  let pruned_arcs_seen = ref 0 in
  List.iter
    (fun (model_name, attrs) ->
      for seed = 1 to 8 do
        let cfg =
          {
            Synthetic.default with
            Synthetic.n_events = 3 + (seed mod 4);
            n_users = 10 + (3 * seed);
            dim = 1 + (seed mod 3);
            attrs;
            event_capacity = Synthetic.Cap_uniform 3;
            user_capacity = Synthetic.Cap_uniform 2;
            conflict_ratio = 0.3;
          }
        in
        let base = Synthetic.generate ~seed cfg in
        List.iter
          (fun (flavour, instance) ->
            let label =
              Printf.sprintf "%s/%s seed=%d" model_name flavour seed
            in
            let stats = check_against_oracle ~label instance in
            let all_pairs =
              Instance.n_events instance * Instance.n_users instance
            in
            if stats.Mincostflow.pair_arcs > all_pairs then
              Alcotest.failf "%s: more arcs than |V|·|U|" label;
            pruned_arcs_seen :=
              !pruned_arcs_seen + all_pairs - stats.Mincostflow.pair_arcs)
          [ ("eq1", base); ("tight", tighten base) ]
      done)
    attr_models;
  if !pruned_arcs_seen = 0 then
    Alcotest.fail "no pair was ever pruned — tight instances too loose"

(* The integer kernel against the float oracle on larger instances
   (alternating uniform and Zipf attributes), so longer augmenting paths
   and more tied costs are exercised. *)
let test_int_float_kernels () =
  for seed = 1 to 6 do
    let cfg =
      {
        Synthetic.default with
        Synthetic.n_events = 3 + (seed mod 4);
        n_users = 12 + (4 * seed);
        dim = 1 + (seed mod 3);
        attrs =
          (if seed mod 2 = 0 then Synthetic.Attr_zipf 1.3
           else Synthetic.Attr_uniform);
        event_capacity = Synthetic.Cap_uniform 3;
        user_capacity = Synthetic.Cap_uniform 2;
        conflict_ratio = 0.3;
      }
    in
    let base = Synthetic.generate ~seed cfg in
    List.iter
      (fun (flavour, instance) ->
        let label = Printf.sprintf "%s seed=%d" flavour seed in
        ignore (check_against_oracle ~label instance : Mincostflow.stats))
      [ ("eq1", base); ("tight", tighten base) ]
  done

let suite =
  [
    Alcotest.test_case "200-instance differential sweep" `Slow
      test_differential;
    Alcotest.test_case "dense vs sparse networks identical" `Slow
      test_dense_sparse_identical;
    Alcotest.test_case "int vs float cost kernels identical" `Slow
      test_int_float_kernels;
  ]
