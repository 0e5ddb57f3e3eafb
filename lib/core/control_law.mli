(** Pluggable decision rules for the feedback {!Controller} — the
    "control-law zoo".

    A control law is the pure decision core of the control loop: once
    per control epoch it reads the per-server latency estimates and the
    current weight vector (a {!view}) and either proposes a new weight
    vector (a {!proposal}) or holds. Everything around that decision —
    epoch spacing, the drain/restore pins, coordination hooks (estimate
    override, shift gate, imposed weights), recovery-towards-uniform,
    telemetry and the weighted-Maglev commit — stays in {!Controller},
    so every law composes with the fleet machinery of
    [Cluster.Coordination] unchanged.

    Not to be confused with {!Policy}, the {e routing} policy
    ([lbsim --policy]) that picks a backend for each new connection. A
    control law ([lbsim --law]) only steers the weight vector that the
    [Latency_aware] routing policy hashes flows over; under the other
    routing policies no controller runs and the law is irrelevant.

    Three laws ship:

    - {!Shift_worst} — the paper's rule: move a fixed fraction α of
      total traffic away from the server with the worst estimate,
      spread equally over the rest. The port is byte-identical to the
      pre-refactor controller (golden fig2a/fig2b and the Fig. 3 CSV
      are regression-locked on it).
    - {!Knapsack} — a KnapsackLB-style solver (arXiv 2404.17783): each
      server's capacity is learned online as an EWMA of the measured
      operating points [weight / latency] on its latency curve; the
      target allocation equalises predicted latency (weight ∝
      capacity, the solution of min–max latency over the simplex), and
      an α-sized trust region limits how far one epoch may move.
    - {!Gradient} — distributed gradient descent on latency
      (arXiv 2504.10693): a multiplicative-weights / exponentiated-
      gradient step [w_i ← w_i · exp(−α · (e_i/ē − 1))], renormalised.
      Each LB descends on its local view; under gossip coordination the
      merged fleet estimates make the iterates agree. *)

type kind = Shift_worst | Knapsack | Gradient

val all : kind list
(** [[Shift_worst; Knapsack; Gradient]]. *)

val to_string : kind -> string
(** ["shift-worst"], ["knapsack"], ["gradient"]. *)

val of_string : string -> (kind, string) result
(** Inverse of {!to_string} (also accepts ["shift_worst"] and
    ["gradient-descent"]). [Error "unknown law %S (shift-worst|knapsack|gradient)"]
    otherwise. *)

val pp : Format.formatter -> kind -> unit

type view = {
  now : Des.Time.t;
  estimate : int -> float option;
      (** Decision-loop latency estimate per server, ns ([None] = no
          estimate yet). Already the coordination override when one is
          installed. *)
  weights : float array;
      (** Current weights, post-recovery, summing to ~1. Laws must not
          mutate this array — propose on a copy. *)
  drained : int -> bool;
      (** Administratively drained servers: laws must leave their
          weights alone (the controller re-pins them at the floor on
          commit) and must not route shifted mass to them. *)
  alpha : float;  (** Shift fraction / step size ([Config.alpha]). *)
  min_weight : float;  (** Weight floor ([Config.min_weight]). *)
  relative_threshold : float;
      (** Activation threshold ([Config.relative_threshold]). *)
}

type proposal = {
  victim : int;
      (** The server losing the most mass — reported in the controller's
          action log and shown to the coordination shift gate. *)
  shifted : float;
      (** Total mass moved away from losers (L1/2 distance to the
          current weights). [<= 1e-9] means "the decision fired but the
          move is empty" — the controller still consults the shift gate
          (so fleet-hysteresis accounting is law-independent) but
          commits nothing. *)
  weights : float array;  (** The proposed vector (fresh array). *)
}

type t
(** A law instance: the kind plus any per-server learned state (the
    knapsack capacity curve). One instance per controller. *)

val create : kind -> n:int -> t
(** A fresh instance for an [n]-server pool.

    @raise Invalid_argument if [n < 2]. *)

val kind : t -> kind

val propose : t -> view -> proposal option
(** One decision step. [None] = hold (below threshold, no usable
    estimates, or already at the law's fixed point). The controller
    guarantees at least two servers have an estimate before calling;
    laws must still tolerate any view (the qcheck battery drives them
    raw). Proposed weights are finite, non-negative and normalised. *)
