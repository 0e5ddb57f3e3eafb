(** Sharded single-scenario runs: the flow-scale churn workload
    partitioned across K engine shards (one domain each), synchronized
    in lookahead-bounded windows by {!Des.Shard}.

    Clients and servers are distributed round-robin over the shards;
    each shard runs a full balancer replica with an identical Maglev
    table, so a flow's backend is independent of the partitioning, and
    cross-shard packet legs preserve exact arrival times. Simulation
    outcomes are therefore invariant in K: the [csv] summary is
    byte-identical for any [shards] value (asserted by the determinism
    tests and the CI shard-smoke job), and [shards = 1] reproduces the
    historical single-engine bench exactly. DESIGN.md §14 has the
    determinism argument. *)

val rounds : int
(** Sends per flow over the whole run (12). *)

val resolve_shards : int -> int
(** A [--shards] value: [k > 0] is [k]; [0] means one shard per
    available core ([Domain.recommended_domain_count]), capped at the
    64 clients. *)

type result = {
  n : int;
  shards : int;
  events : int;  (** events fired, summed over shards (NOT K-invariant:
                     each shard runs its own pacer and sweep timers) *)
  responses : int;
  active_peak : int;  (** tracked flows at the send horizon, summed *)
  wall_s : float;
  events_per_sec : float;  (** aggregate: [events] / [wall_s] *)
  words_per_flow : float;
  full_major_s : float;
  csv : string;  (** K-invariant per-client summary (see above) *)
  drain_windows : int;
      (** synchronized windows spent in the idle-expiry drain phase —
          the phase adaptive widening collapses (NOT K-invariant) *)
  stats : Des.Shard.stats;
}

val flows :
  ?shards:int ->
  ?seed:int ->
  ?adaptive:bool ->
  n:int ->
  unit ->
  result
(** [flows ~shards ~n ()] runs [n] concurrent flows (12 sends each,
    FIN + reincarnation every 8th packet) through [shards] balancer
    replica shards to completion, including the idle-expiry drain.
    Default [shards] is 1. [seed] (default 0, the historical workload)
    deterministically perturbs the flow→client assignment and the flow
    port space — a different simulation whose results are still
    invariant in [shards]. [adaptive] (default [true]) selects
    event-horizon window widening; the [csv] is byte-identical either
    way, only window counts and wall time differ.

    @raise Invalid_argument if [shards < 1], [n < 1] or [seed < 0].
    @raise Failure if any flow survives the idle-expiry drain. *)

val baseline_events_per_sec : float
(** The single-engine rate recorded in [BENCH_pr4.json]'s
    [flows_baseline_events_per_sec] (2 284 397 events/s). *)

val baseline_words_per_flow : float
(** The live words per flow of the 1-shard run at [n = 65536] recorded
    in [BENCH_pr23.json]'s [flows_words_per_flow_k1_after] (13.232). *)

val check : cores:int -> ?one_shard:result -> ?fixed:result -> result -> string list
(** The flows contract (the CI flow-smoke and shard-smoke gates) over a
    run [r] on [cores] cores: the names of the failed tripwires, [[]]
    when it holds. [one_shard] is the same scenario rerun on one shard
    and [fixed] rerun with [~adaptive:false]; a run on two or more
    shards passes both.

    - ["rate"]: the single-engine rate, [one_shard]'s when given and
      [r]'s otherwise, is below half {!baseline_events_per_sec};
    - ["words"]: [r]'s live words per flow exceed 1.5 ×
      {!baseline_words_per_flow};
    - ["determinism"]: [one_shard]'s CSV differs from [r]'s;
    - ["adaptive-determinism"]: [fixed]'s CSV differs from [r]'s;
    - ["adaptive-windows"]: [fixed] did not take at least 3x [r]'s
      drain windows;
    - ["parallel-rate"]: with [one_shard] given and a core for each of
      [r]'s shards, [r]'s aggregate rate is below 2 ×
      {!baseline_events_per_sec}. Oversubscribed shards time-slice, so
      their aggregate rate is not judged. *)
