(** Deterministic random-number streams.

    Every stochastic component of the simulation draws from its own
    [Rng.t], derived from a root seed, so that simulations are exactly
    reproducible and components can be re-seeded independently. *)

type t
(** A self-contained pseudo-random stream. *)

val create : seed:int -> t
(** [create ~seed] is a fresh stream fully determined by [seed]. *)

val split : t -> label:string -> t
(** [split t ~label] derives an independent child stream. The child is a
    pure function of the parent's seed and [label] (not of how many draws
    have been made), so adding draws to one component never perturbs
    another. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto distributed: [scale] is the minimum value, [shape] the tail
    index (smaller = heavier tail). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal: [exp X] where [X ~ Normal(mu, sigma)]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normally distributed (Box–Muller). *)
