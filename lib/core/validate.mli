(** Independent feasibility checking.

    Verifies a raw pair list against an instance without trusting
    {!Matching}'s internal invariants — the test suite runs every solver's
    output through this, and the CLI uses it to validate files. *)

type violation =
  | Event_id_out_of_range of int
  | User_id_out_of_range of int
  | Duplicate_pair of int * int
  | Event_over_capacity of { v : int; load : int; capacity : int }
  | User_over_capacity of { u : int; load : int; capacity : int }
  | Non_positive_similarity of int * int
  | Conflicting_assignment of { u : int; v1 : int; v2 : int }
  | Maxsum_drift of { incremental : float; recomputed : float }
      (** The matching's incrementally-maintained MaxSum disagrees with a
          from-scratch recomputation by more than 1e-6. *)

val check : Instance.t -> (int * int) list -> violation list
(** All violations of the pair list, in deterministic order; [] iff the
    arrangement is feasible. *)

val is_feasible : Instance.t -> (int * int) list -> bool

val check_matching : Matching.t -> violation list
(** {!check} on [Matching.pairs], plus an internal-consistency comparison of
    the incremental MaxSum against a recomputation (reported as a trailing
    [Maxsum_drift] violation when they differ beyond 1e-6). *)

val audit_matching : site:string -> Matching.t -> unit
(** Audit hook (see [Geacc_check.Audit]): when auditing is enabled, runs
    {!check_matching} and raises [Geacc_check.Audit.Violation] carrying the
    first violation found. No-op when auditing is disabled. *)

val audit_added_pair : site:string -> Matching.t -> v:int -> u:int -> unit
(** Audit hook for one step of a solver that only ever adds pairs: when
    auditing is enabled, checks the constraints the pair [{v,u}] just added
    can have broken — [v]'s and [u]'s capacities, and conflicts between [v]
    and [u]'s other events — in O(deg u), and raises
    [Geacc_check.Audit.Violation] on the first one broken. Pairs added
    earlier are not re-checked; {!audit_matching} covers the whole
    matching. *)

val pp_violation : Format.formatter -> violation -> unit
