open Geacc_util
open Geacc_core

type measurement = {
  algorithm : Solver.algorithm;
  maxsum : float;
  matched_pairs : int;
  wall_s : float;
  live_bytes : int;
  matching : Matching.t;
}

let measure ?(seed = 42) algorithm make_instance =
  (* Timing and peak-memory sampling perturb each other, so the algorithm
     runs twice with identically-seeded generators and fresh instances:
     once timed, once under the memory sampler. *)
  let matching, wall_s =
    Measure.time (fun () ->
        Solver.run ~rng:(Rng.create ~seed) algorithm (make_instance ()))
  in
  let peak_matching, peak_bytes =
    Measure.run_with_peak (fun () ->
        Solver.run ~rng:(Rng.create ~seed) algorithm (make_instance ()))
  in
  assert (Matching.size peak_matching = Matching.size matching);
  (match Validate.check_matching matching with
  | [] -> ()
  | violations ->
      let msg =
        Format.asprintf "%s produced an infeasible arrangement: %a"
          (Solver.name algorithm)
          (Format.pp_print_list ~pp_sep:Format.pp_print_space
             Validate.pp_violation)
          violations
      in
      failwith msg (* lint: ok — infeasible solver output is a fatal bug *));
  {
    algorithm;
    maxsum = Matching.maxsum matching;
    matched_pairs = Matching.size matching;
    wall_s;
    live_bytes = peak_bytes;
    matching;
  }

type aggregate = {
  algorithm : Solver.algorithm;
  trials : int;
  mean_maxsum : float;
  mean_wall_s : float;
  mean_live_bytes : float;
}

let aggregate (grid : measurement array array) =
  let trials = Array.length grid in
  assert (trials >= 1);
  let n_alg = Array.length grid.(0) in
  let stats =
    Array.init n_alg (fun i ->
        (grid.(0).(i).algorithm, Stats.create (), Stats.create (),
         Stats.create ()))
  in
  (* Accumulate in (trial, algorithm) order, so each mean sums its trials
     in ascending-seed order. *)
  for t = 0 to trials - 1 do
    for i = 0 to n_alg - 1 do
      let m = grid.(t).(i) in
      let _, s_max, s_time, s_mem = stats.(i) in
      Stats.add s_max m.maxsum;
      Stats.add s_time m.wall_s;
      Stats.add s_mem (float_of_int m.live_bytes)
    done
  done;
  Array.to_list
    (Array.map
       (fun (algorithm, s_max, s_time, s_mem) ->
         {
           algorithm;
           trials;
           mean_maxsum = Stats.mean s_max;
           mean_wall_s = Stats.mean s_time;
           mean_live_bytes = Stats.mean s_mem;
         })
       stats)

let metric which agg =
  match which with
  | `Maxsum -> agg.mean_maxsum
  | `Time_ms -> agg.mean_wall_s *. 1000.
  | `Memory_mb -> agg.mean_live_bytes /. (1024. *. 1024.)

let metric_label = function
  | `Maxsum -> "MaxSum"
  | `Time_ms -> "time (ms)"
  | `Memory_mb -> "memory (MB)"
