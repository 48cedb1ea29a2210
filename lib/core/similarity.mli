(** Interestingness functions (paper Definition 4).

    A similarity maps a pair of attribute vectors to [\[0,1\]]. The paper's
    evaluation uses Equation (1):
    [sim(lv,lu) = 1 - ||lv - lu||_2 / sqrt(d·T²)];
    other functions are explicitly allowed, so this module also provides a
    Gaussian kernel and cosine similarity.

    Every neighbour enumeration ranks pairs by {!eval} itself (see
    {!Instance.event_neighbor}), so any function in [\[0,1\]] works with
    every solver; nothing requires it to be a function of distance. *)

type t

type spec =
  | Spec_euclidean of { dim : int; range : float }
  | Spec_gaussian of { sigma : float }
  | Spec_cosine
  | Spec_custom of string
      (** Named but otherwise opaque; not serialisable. *)

val spec : t -> spec
(** Structural identity of the similarity, used by serialisation. *)

val name : t -> string
val eval : t -> float array -> float array -> float

val euclidean : dim:int -> range:float -> t
(** Paper Equation (1) for vectors in [\[0,range\]^dim]:
    [1 - dist/sqrt(dim·range²)], clamped to [\[0,1\]]; 0 from distance
    [sqrt(dim·range²)] on. *)

val gaussian : sigma:float -> t
(** [exp(-d²/(2σ²))] of the Euclidean distance [d]; strictly positive, so
    every pair is matchable unless it underflows to 0. Requires
    [sigma > 0]. *)

val cosine : t
(** Cosine of the angle between the vectors clamped to [\[0,1\]]; 0 when
    either vector is null. *)

val custom : name:string -> (float array -> float array -> float) -> t
(** Escape hatch for user-supplied similarities. The function must return
    values in [\[0,1\]] and is called with the event's attributes first. *)

val pp : Format.formatter -> t -> unit
