(** Deadline-aware solving with a declarative fallback chain.

    The paper's own evaluation (Fig 6) shows the exact solvers blowing up
    super-exponentially while Greedy/MinCostFlow stay cheap — so a serving
    deployment wants "the best answer you can find by the deadline", not
    "the optimal answer whenever it is ready". This module packages the
    anytime solvers behind [Geacc_robust.Chain]: a chain of algorithms is
    tried in order under one overall time budget, each stage either
    completes, contributes a degraded best-so-far matching, or faults and
    falls through; the final matching is the best candidate by MaxSum,
    tagged {!Geacc_robust.Chain.Complete} only when the head stage finished
    untimed. Every stage's output — degraded or not — is audited
    [Validate]-clean under [GEACC_AUDIT=1] before the chain accepts it.

    The default chain is quality-first: {!Solver.Exhaustive} →
    {!Solver.Prune} → {!Solver.Min_cost_flow} → {!Solver.Greedy}. Under a
    tight deadline the expensive heads time out quickly at a consistent
    checkpoint and the tail guarantees a feasible answer (Greedy is
    near-linear; an expired budget still yields its feasible prefix). *)

type report = {
  matching : Matching.t;
  status : Geacc_robust.Chain.status;
  reason : string option;        (** Why degraded; [None] when complete. *)
  algorithm : Solver.algorithm;  (** Stage that produced [matching]. *)
  stages_tried : int;
  fallbacks : int;
  retries : int;
  faults : int;
  elapsed_s : float;
  trace : Geacc_robust.Chain.trace_entry list;
}

val default_chain : Solver.algorithm list
(** [[Exhaustive; Prune; Min_cost_flow; Greedy]]. *)

val stage :
  ?timeout_s:float ->
  Solver.algorithm ->
  (Instance.t, Matching.t) Geacc_robust.Chain.stage
(** One chain stage running the algorithm under the budget the chain arms
    (named after {!Solver.short_name}, which also keys its
    [timeout.<name>] fault point). Algorithms without budget support run
    to completion and always report complete. *)

val solve :
  ?timeout_s:float ->
  ?stage_timeout_s:float ->
  ?max_retries:int ->
  ?backoff_s:float ->
  ?algorithms:Solver.algorithm list ->
  Instance.t ->
  (report, Geacc_robust.Error.t) result
(** Runs the chain ([algorithms] defaults to {!default_chain}; a singleton
    list gives plain time-budgeted solving). [timeout_s] bounds the whole
    run, [stage_timeout_s] additionally caps each stage, [max_retries] and
    [backoff_s] govern retry of transient faults (see
    {!Geacc_robust.Chain.run}). Fails with [Timeout] only when no stage
    produced any matching in time, and with [Exhausted] when every stage
    faulted. *)
