(** Long-horizon soak: hours of simulated churn, repeating faults and
    adversarial clients, asserting that the system's memory telemetry
    stays {e flat}.

    The battery reuses the {!Churn} cluster (latency-aware LB, three
    backends), tiles one period of faults across the whole run, attaches
    the {!Oracle} PCC checker and a set of {!Workload.Pathology} clients,
    and then judges the run on graceful degradation rather than
    throughput:

    - {b flatness} — windowed means of live words/flow, the heap
      gauges, reassembly/send-queue byte gauges, flow-table tombstones
      and the DES pending-event count must not grow across the run;
    - {b no stuck flows} — after the clients stop and an idle-timeout
      drain elapses, the balancer's flow table and every server's
      connection table must be empty;
    - {b estimator health} — no post-warmup latency estimate may go NaN
      or infinite;
    - {b PCC} — zero per-connection-consistency violations;
    - {b reassembly cap} — a gap flood, when one attacks, must be
      refused at the cap rather than buffered.

    A fleet soak is the same run over a fleet scenario ([n_lbs > 1],
    usually coordinated): gauges sum over the balancers, adversaries
    round-robin over the VIPs, PCC oracles watch every LB, and the
    control plane's backlog ([coord.backlog]) is growth-checked too.

    [lbsim soak] wires this to the command line and CI. *)

type config = {
  scenario : Scenario.config;
  timeline : Faults.Timeline.t;  (** One period of faults. *)
  fault_period : Des.Time.t;  (** The timeline repeats at this pitch. *)
  duration : Des.Time.t;  (** Simulated soak length. *)
  warmup : Des.Time.t;  (** Excluded from flatness and health checks. *)
  drain : Des.Time.t;
      (** Post-soak quiesce time before the stuck-flow census. *)
  windows : int;  (** Flatness windows over [warmup, duration]. *)
  growth_tolerance : float;
      (** Max (last − first)/mean window growth, e.g. 0.35 = 35%. *)
  monotonic_tolerance : float;
      (** Lower growth bound at which {e strictly monotonic} window
          means already fail — a slow leak never oscillates. *)
  watched : (string * float option) list;
      (** Metrics under assertion: [(metric, None)] is growth-checked,
          [(metric, Some bound)] must keep every window mean at or
          under [bound] (used for sawtoothing gauges like the
          flow-table tombstone ratio). *)
  pathologies : (Workload.Pathology.kind * int) list;
      (** Adversarial clients: (attack, parallel connections). *)
}

val default_config : config
(** 30 simulated minutes over the churn cluster: faults every 20 s, a
    60 s warmup, 6 windows at 35%/10% tolerances, all five pathologies
    attacking throughout. *)

type verdict = {
  metric : string;
  means : float array;  (** Per-window means; NaN = empty window. *)
  growth : float;  (** (last − first) / mean, over non-empty windows. *)
  monotonic : bool;  (** Strictly increasing window means. *)
  bound : float option;  (** Absolute ceiling, when bound-checked. *)
  flat : bool;
}

val flatness :
  ?bound:float ->
  Telemetry.Snapshot.row list ->
  metric:string ->
  from_:Des.Time.t ->
  until:Des.Time.t ->
  windows:int ->
  growth_tolerance:float ->
  monotonic_tolerance:float ->
  verdict
(** Judge one metric's snapshot rows (summed across indexes at each
    instant) over equal time windows. Exposed for tests.

    @raise Invalid_argument if [windows < 2] or the span is empty. *)

val repeat_timeline :
  Faults.Timeline.t ->
  period:Des.Time.t ->
  until:Des.Time.t ->
  Faults.Timeline.t
(** Tile one fault period across [0, until), dropping events whose
    revert would not complete in time. *)

type result = {
  duration : Des.Time.t;
  sim_minutes : float;
  verdicts : verdict list;
  stuck_flows : int;  (** Flow-table entries after drain, all LBs. *)
  stuck_conns : int;  (** Server-side connections after drain. *)
  stuck_states : (string * int) list;
      (** TCP-state census of the stuck connections. *)
  estimator_ok : bool;
  pcc_checked : int;
  pcc_violations : int;
  reasm_drops : int;  (** Segments refused at the reassembly cap. *)
  send_drops : int;  (** Writes refused at the send-queue cap. *)
  fault_intervals : int;
  pathology_conns : int;
  gap_segments : int;
  rsts_sent : int;
  responses : int;
  p95_us : float;
  events_fired : int;
  coord_msgs : int;  (** Control-plane snapshots sent fleet-wide. *)
  coord_suppressed : int;  (** Hysteresis vetoes + no-change imposes. *)
  coord_imposed : int;  (** Follower weight adoptions (leader mode). *)
  coord_stale : int;  (** Leader snapshots ignored as too old. *)
  rows : Telemetry.Snapshot.row list;
}

val run : ?config:config -> unit -> result

val check : config -> result -> string list
(** The soak verdict (the CI soak-smoke gate) of a run under [config]:
    the names of the failed tripwires, [[]] when it holds.

    - ["flatness"]: a watched metric failed its flatness windows;
    - ["stuck"]: a flow or server connection survived the drain;
    - ["estimator"]: a post-warmup latency estimate went NaN or
      infinite;
    - ["pcc"]: the oracle saw a per-connection-consistency violation;
    - ["reasm-cap"]: [config] attacks with a [Gap_flood], yet no
      segment was refused at the reassembly cap — the flood is broken,
      or out-of-order memory is unbounded. *)

val ok : config -> result -> bool
(** {!check} finds no failed tripwire. *)

val print : ?config:config -> result -> unit
