(** Ablation experiments for the design choices DESIGN.md calls out.

    - A2: controller shift fraction α (speed vs stability),
    - A3: ensemble epoch length E,
    - A4: client/server packet-timing assumption violations (§5 Q2),
    - A7: LB fleet coordination (uncoordinated/gossip/leader) across
      fleet sizes (§5 Q4),
    - A8: control-law comparison (shift-worst/knapsack/gradient) across
      fleet sizes,
    - A6, A9, A10: far clients, robust estimation, measurement source.

    (A1, the fixed-δ sweep, is part of the Fig. 2 output itself; A5,
    the routing-policy comparison, is {!Fig3.run} over
    {!Inband.Policy.all}.) *)

(** {1 A2 — shift fraction α} *)

type alpha_row = {
  alpha : float;
  p95_before_us : float;
  p95_after_us : float;
  reaction_ms : float option;
  recovery_ms : float option;
  actions : int;
  disruption : float;  (** Accumulated Maglev table disruption. *)
}

val alpha_sweep :
  ?jobs:int ->
  ?alphas:float list ->
  ?duration:Des.Time.t ->
  ?inject_at:Des.Time.t ->
  unit ->
  alpha_row list
(** One Fig. 3-style latency-aware run per α (default
    [0.025; 0.05; 0.1; 0.2; 0.4]). Every sweep in this module takes
    [?jobs]: the runs are independent simulations mapped with
    {!Parallel.map}, so results are identical at any job count. *)

val print_alpha : alpha_row list -> unit

(** {1 A3 — epoch length E} *)

type epoch_row = {
  epoch_ms : float;
  err_before : float;
  err_after : float;
  ensemble_samples : int;
}

val epoch_sweep :
  ?jobs:int -> ?epochs:Des.Time.t list -> unit -> epoch_row list
(** One Fig. 2-style run per epoch length (default 16–256 ms). *)

val print_epoch : epoch_row list -> unit

(** {1 A4 — timing-assumption violations} *)

type timing_row = {
  label : string;
  err_before : float;
  err_after : float;
  n_before : int;
  n_after : int;
}

val timing_sweep : ?jobs:int -> unit -> timing_row list
(** Fig. 2 flow under: coalesced ACKs (baseline), standard delayed ACKs,
    per-packet ACKs, 1 ms-paced ACKs, and an application-limited
    sender. *)

val print_timing : timing_row list -> unit

(** {1 A7/A8 — LB fleets (§5 Q4)}

    Several LBs over one server pool, each with its own VIP, estimator
    and controller, under the Fig. 3 injection on server 1. Total
    offered load is fixed while the fleet grows. Uncoordinated, every
    controller shifts away from the victim on its partial view and the
    fleet over-shifts (the thundering herd); a {!Coordination} policy
    shares snapshots over a simulated control plane. *)

val fleet_scenario : Scenario.config
(** 2 LBs, 2 servers, 4 single-connection clients, latency-aware with a
    stabilised controller (threshold 1.5, EWMA 0.05, 5 ms interval,
    0.02/s recovery), 1021-slot tables, uncoordinated. *)

type herd_row = {
  n_lbs : int;
  coord : Coordination.policy;
  law : Inband.Control_law.kind;  (** The control law every LB ran. *)
  p95_before_us : float;
  p95_after_us : float;
  total_actions : int;
      (** Fleet-total [ctl.actions]: local shifts plus leader-imposed
          weight adoptions — every entry is one weight commit. *)
  per_lb_actions : int list;
      (** Per-LB [ctl.actions], LB order. Sums to [total_actions]. *)
  victim_flips : int;
      (** Controller actions whose victim differs from that controller's
          previous victim — a proxy for hunting/oscillation. *)
  victim_weight_mean : float;
      (** Mean over LBs of the degraded server's final weight. *)
  converged_ms : float;
      (** Time from the start of the run until the fleet-mean victim
          weight first reaches 0.1 (50 ms sampling) — how long the
          whole fleet takes to concentrate traffic away from the victim;
          [nan] if it never does. *)
  msgs : int;  (** Control-plane snapshots sent fleet-wide. *)
  suppressed : int;  (** Hysteresis vetoes + no-change imposes. *)
  imposed : int;  (** Follower weight adoptions (leader mode). *)
  pcc_checked : int;
  pcc_violations : int;
}

val herd_one :
  ?coord:Coordination.policy ->
  ?law:Inband.Control_law.kind ->
  ?remap:Inband.Remap.t ->
  n_lbs:int ->
  duration:Des.Time.t ->
  inject_at:Des.Time.t ->
  unit ->
  herd_row
(** One {!fleet_scenario} run of [n_lbs] LBs with +1 ms on every LB's
    link to server 1 at [inject_at]. Every LB carries a (counting) PCC
    oracle. [coord] defaults to uncoordinated, [law] to the paper's
    shift-worst, [remap] to preserve. *)

val coord_sweep :
  ?jobs:int ->
  ?law:Inband.Control_law.kind ->
  ?remap:Inband.Remap.t ->
  ?policies:Coordination.policy list ->
  ?lb_counts:int list ->
  ?duration:Des.Time.t ->
  ?inject_at:Des.Time.t ->
  unit ->
  herd_row list
(** A7: {!herd_one} for every (policy, LB count) pair — defaults
    [none; gossip; leader] x [1; 2; 4], 12 s runs injected at 4 s. *)

val law_sweep :
  ?jobs:int ->
  ?laws:Inband.Control_law.kind list ->
  ?lb_counts:int list ->
  ?duration:Des.Time.t ->
  ?inject_at:Des.Time.t ->
  unit ->
  herd_row list
(** A8: {!herd_one} under every control law at 1/2/4 LBs
    (uncoordinated), plus gradient+gossip — convergence time,
    post-injection p95 and action churn, the paper's shift-worst as
    baseline. *)

val print_coord : herd_row list -> unit
val print_laws : herd_row list -> unit

val coord_check : herd_row list -> string list
(** The A7 contract (the CI coord-smoke gate) over a {!coord_sweep}:
    the names of the failed tripwires, [[]] when it holds.

    - ["pcc"]: some run broke per-connection consistency;
    - ["churn"]: at the largest fleet size, gossip or leader took more
      than half of uncoordinated's fleet-total actions (judged only
      when the rows hold [none] and a coordinated policy there). *)

val law_baseline_converged_ms : float
(** Shift-worst's convergence time at 1 LB, uncoordinated, as recorded
    in [BENCH_pr6.json] (4 100 ms). *)

val law_check : herd_row list -> string list
(** The A8 contract (the CI law-smoke gate) over a {!law_sweep}: the
    names of the failed tripwires, [[]] when it holds.

    - ["pcc"]: some law broke per-connection consistency;
    - ["convergence"]: shift-worst at 1 LB never converged, or took
      more than 1.25 × {!law_baseline_converged_ms};
    - ["p95"]: at some fleet size, gradient's post-injection p95 is
      above 1.1 × shift-worst's;
    - ["churn"]: at some fleet size above 1 LB, gradient+gossip took no
      fewer actions than uncoordinated gradient. *)

(** {1 A6 — far, non-equidistant clients (§5 Q1)} *)

type far_row = {
  label : string;
  est_s0_us : float;  (** LB's smoothed latency estimate for server 0. *)
  est_s1_us : float;
  p95_us : float;
}

val far_clients : ?jobs:int -> ?duration:Des.Time.t -> unit -> far_row list
(** Two healthy servers; a second client whose client→LB path is ~1 ms.
    Its in-band samples measure mostly its own access path, inflating
    and noising the per-server estimates — the paper's open question 1.
    Rows: near client only; near + far client. *)

val print_far : far_row list -> unit

(** {1 A9 — robust estimation vs the paper's EWMA} *)

type estimator_row = {
  label : string;
  actions : int;
  weights : float array;  (** Final weights, 3 servers (index 2 is slow). *)
  mean_us : float;
  p95_get_us : float;
}

val estimator_comparison :
  ?jobs:int -> ?duration:Des.Time.t -> unit -> estimator_row list
(** The 3-server hunting case (server 2 has +500 µs path delay from
    t = 0): the paper's EWMA-of-samples estimate is dragged around by
    heavy queueing tails and starves a healthy server; a windowed-median
    estimate (plus the §5 Q4 stabilisers) converges to the intended
    weights and roughly halves the p95. *)

val print_estimator : estimator_row list -> unit

(** {1 A10 — measurement source: full in-band vs handshake-only} *)

type source_row = {
  fault : string;  (** "path +1ms" or "server stalls". *)
  ens_samples : int;
  syn_samples : int;
  ens_ratio : float;
      (** Victim/other estimate ratio from ENSEMBLETIMEOUT samples after
          the fault (>> 1 = fault detected). *)
  syn_ratio : float;  (** Same, from handshake-only samples. *)
}

val source_comparison :
  ?jobs:int -> ?duration:Des.Time.t -> unit -> source_row list
(** The handshake estimate (§3's "simple instantiation") sees network
    path changes but is blind to server-side slowness — the SYN-ACK is
    generated by the server's TCP stack before the application runs.
    ENSEMBLETIMEOUT samples the whole request path continuously and
    detects both faults. *)

val print_source : source_row list -> unit
