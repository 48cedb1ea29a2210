(** Experiment harness: run algorithms over instances and aggregate the
    paper's three metrics (MaxSum, running time, memory).

    Each measurement validates the produced arrangement — a benchmark run
    doubles as an end-to-end feasibility check — and repeated trials with
    distinct seeds are averaged, mirroring the paper's averaged plots. *)

type measurement = {
  algorithm : Geacc_core.Solver.algorithm;
  maxsum : float;
  matched_pairs : int;
  wall_s : float;
  live_bytes : int;   (** Peak live-heap growth during the solve call. *)
  matching : Geacc_core.Matching.t;  (** The timed run's arrangement. *)
}

val measure :
  ?seed:int -> Geacc_core.Solver.algorithm ->
  (unit -> Geacc_core.Instance.t) -> measurement
(** Runs the algorithm twice with identical seeds — once timed, once under
    the peak-memory sampler (see {!Geacc_util.Measure.run_with_peak}) — and
    validates the output. The instance thunk is called once per run so that
    each run starts from cold per-instance index caches; pass
    [fun () -> instance] to accept warm caches instead.
    @raise Failure if the output is infeasible. *)

type aggregate = {
  algorithm : Geacc_core.Solver.algorithm;
  trials : int;
  mean_maxsum : float;
  mean_wall_s : float;
  mean_live_bytes : float;
}

val aggregate : measurement array array -> aggregate list
(** Per-algorithm means of a trials × algorithms grid: element [(t)(i)] is
    trial [t+1] of the [i]-th algorithm, and every row lists the algorithms
    in the same order. Trials are folded in ascending order. *)

val metric :
  [ `Maxsum | `Time_ms | `Memory_mb ] -> aggregate -> float
(** Projects an aggregate onto one of the paper's plot axes. *)

val metric_label : [ `Maxsum | `Time_ms | `Memory_mb ] -> string
