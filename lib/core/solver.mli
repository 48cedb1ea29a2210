(** One entry point over all GEACC algorithms.

    Used by the CLI, the examples and the benchmark harness so that an
    algorithm is a runtime value. The random baselines consume entropy from
    [rng]; the deterministic algorithms ignore it. *)

type algorithm =
  | Greedy          (** Greedy-GEACC, 1/(1+α) approximation. *)
  | Min_cost_flow   (** MinCostFlow-GEACC, 1/α approximation. *)
  | Prune           (** Prune-GEACC exact search. *)
  | Exhaustive      (** Exact search without pruning (Fig 6 baseline). *)
  | Random_v        (** Random baseline iterating over events. *)
  | Random_u        (** Random baseline iterating over users. *)
  | Greedy_ls       (** Greedy-GEACC followed by local-search improvement
                        (extension beyond the paper). *)
  | Online          (** Online arrivals in random order, served greedily on
                        arrival (extension beyond the paper); consumes
                        [rng]. *)

val all : algorithm list
(** Every algorithm, approximation algorithms first. *)

val name : algorithm -> string
(** Paper name, e.g. ["Greedy-GEACC"]. *)

val short_name : algorithm -> string
(** CLI/bench identifier, e.g. ["greedy"]. *)

val of_string : string -> (algorithm, string) result
(** Parses a {!short_name} (case-insensitive). *)

val is_exact : algorithm -> bool

val run :
  ?rng:Geacc_util.Rng.t ->
  ?deadline:Geacc_robust.Budget.t ->
  algorithm ->
  Instance.t ->
  Matching.t
(** Runs the algorithm. [rng] defaults to a fixed seed (42) so that even
    baseline runs are reproducible by default. [deadline] makes the
    budget-aware algorithms ({!Greedy}, {!Min_cost_flow}, {!Prune},
    {!Exhaustive}) anytime — on expiry they return their best feasible
    matching so far; the remaining algorithms already run in (low)
    polynomial time and ignore it. Use {!Anytime.solve} to also learn
    whether the result was degraded. *)
