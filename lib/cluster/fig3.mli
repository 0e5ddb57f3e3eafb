(** Figure 3 reproduction: tail latency under a 1 ms server delay
    injection, static Maglev vs the latency-aware LB.

    Two memcached servers behind the LB, a memtier-style client, and an
    extra 1 ms delay injected on the LB→server path of server 1 at
    [inject_at]. For each policy the run reports the p95 GET latency
    time series, aggregate p95 before/after injection, the controller's
    reaction time (first control action after injection) and recovery
    time (first time-series bucket back within 1.5x the pre-injection
    baseline). *)

type series_row = { t_s : float; count : int; p95_us : float; mean_us : float }

type run_result = {
  policy : Inband.Policy.t;
  series : series_row list;  (** GET p95 over time. *)
  p95_before_us : float;
  p95_after_us : float;
  responses : int;
  throughput_rps : float;
  reaction_ms : float option;
      (** Injection → first control action, milliseconds. *)
  recovery_ms : float option;
      (** Injection → first recovered bucket start, milliseconds. *)
  actions : int;
  weights_final : float array option;
  pool_disruption : float;
      (** {!Maglev.Pool.total_disruption} at the end of the run: over
          the tables the run built, the summed fraction of slots whose
          owner changed from one to the next. A table is built at the
          first lookup after a controller commit, so commits no new
          connection observed add nothing. *)
  victim_share_before : float;  (** Fraction of flows routed to server 1. *)
  victim_share_after : float;
  metrics : Telemetry.Snapshot.row list;
      (** The full telemetry snapshot stream of the run: every
          registered metric sampled each [metrics_interval], plus
          out-of-cadence snapshots at injection time and at the end. *)
}

type result = {
  duration : Des.Time.t;
  inject_at : Des.Time.t;
  inject_delay : Des.Time.t;
  runs : run_result list;
}

val default_scenario : Scenario.config
(** {!Scenario.default_config} with [relative_threshold = 1.3] — the
    stabilised profile {!run} uses by default. Exposed so callers can
    override single fields (e.g. [seed]) without re-deriving it. *)

val run :
  ?scenario:Scenario.config ->
  ?jobs:int ->
  ?policies:Inband.Policy.t list ->
  ?duration:Des.Time.t ->
  ?inject_at:Des.Time.t ->
  ?inject_delay:Des.Time.t ->
  unit ->
  result
(** Defaults: [Static_maglev] and [Latency_aware]; 30 s runs with the
    injection at t = 10 s (a compressed version of the paper's 200 s /
    t = 100 s timeline; timing constants scale); +1 ms; recovery when a
    bucket p95 falls below 1.5 × baseline. The default scenario sets
    [relative_threshold = 1.3] — one stabiliser over the paper's
    always-act rule, without which the controller wanders before the
    injection (DESIGN.md §5); pass your own [scenario] for the
    paper-exact profile, a different control law ([lb.law]) or
    snapshot period ([metrics_interval]).

    The delay step is a one-event fault timeline replayed through
    {!Scenario.install_faults}.

    [jobs] runs the per-policy simulations on that many domains
    ({!Parallel.map}); each run is independent and seeded, so the
    result — and any figure or CSV rendered from it — is byte-identical
    at any [jobs]. *)

val print : result -> unit
