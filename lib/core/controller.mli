(** The feedback controller (§3, "Simple load balancing strategy").

    On each new in-band latency sample the controller may ask its
    {!Control_law} (chosen by [Config.law]; default the paper's
    α shift-from-worst) for a new weight vector and commit it to the
    weighted Maglev pool ({!Maglev.Pool.commit}; the table is built at
    the next read). The controller owns everything around that
    decision — epoch spacing, drain/restore pins, recovery towards
    uniform, the coordination hooks below, telemetry and the commit —
    so laws stay pure decision rules. Extensions beyond the
    paper, all off by default: a minimum spacing between actions, a
    relative-latency activation threshold, a weight floor, and a slow
    recovery towards uniform weights (see {!Config}). *)

type action = {
  at : Des.Time.t;
  victim : int;  (** Server traffic was shifted away from. *)
  shifted : float;  (** Fraction of total traffic moved. *)
  weights_after : float array;
}

type t

val create :
  config:Config.t -> pool:Maglev.Pool.t -> ?telemetry:Telemetry.Registry.t ->
  unit -> t
(** The pool's weights are reset to uniform. When [telemetry] is given,
    the controller registers an ["ctl.actions"] counter and per-server
    ["ctl.weight"] gauges there (private registry otherwise).

    @raise Invalid_argument if the config fails validation or the pool
    has fewer than 2 backends. *)

val on_sample : t -> now:Des.Time.t -> server:int -> Des.Time.t -> action option
(** Attribute a latency sample (ns) to [server]; possibly shift traffic
    (per the configured {!Control_law}). Returns the action taken, if
    any. [action.victim]/[action.shifted] report the law's proposal:
    the server losing the most mass and the total mass moved. *)

val drain : t -> now:Des.Time.t -> server:int -> unit
(** Administratively pin one backend at the weight floor
    ([Config.min_weight]) and commit. The pin holds across every
    subsequent shift/recovery commit until {!restore}; draining an
    already-drained backend is a no-op. The fault layer's backend-drain
    knob.

    @raise Invalid_argument if [server] is out of range. *)

val restore : t -> now:Des.Time.t -> server:int -> unit
(** Undo a {!drain}: give the backend its uniform share back, commit,
    and let feedback control adjust from there. No-op when not
    drained. *)

val is_drained : t -> int -> bool

(** {1 Coordination hooks}

    A fleet coordination layer (see [Cluster.Coordination]) can replace
    the estimates the decision loop sees, veto shifts, or drive the
    weights outright. All hooks default to the paper's fully-autonomous
    behaviour and compose with {!drain}/{!restore}: drained backends
    stay pinned at the weight floor whatever the coordinator does. *)

val set_estimate_override : t -> (int -> float option) option -> unit
(** When set, {!on_sample}'s worst/best decision reads this function
    (e.g. a merged fleet-wide estimate) instead of the local
    {!Server_stats} view. [None] for a server means "no estimate yet";
    the controller acts only when at least two servers have one. Local
    samples are still recorded, so the LB keeps publishing its own
    view. Pass [None] to restore local estimation. *)

val set_shift_gate : t -> (now:Des.Time.t -> victim:int -> bool) option -> unit
(** When set, the gate is consulted after a shift's victim is chosen
    but before any weight moves; returning [false] suppresses the
    action (no commit, not counted). Recovery still applies. Used for
    fleet-epoch hysteresis. *)

val set_autonomous : t -> bool -> unit
(** [set_autonomous t false] turns the controller into a follower: it
    keeps recording samples (and serving estimates) but never shifts or
    recovers on its own — weights change only via {!impose_weights},
    {!drain} and {!restore}. Default [true]. *)

val is_autonomous : t -> bool

val impose_weights : t -> now:Des.Time.t -> float array -> unit
(** Adopt an externally-computed weight vector (leader mode): drained
    backends are re-pinned at the floor, the vector is normalized, and
    the weights committed. Counted in [ctl.actions] and
    {!imposed_count} — an imposed commit is churn just like a local
    shift.

    @raise Invalid_argument on a length mismatch or negative/NaN
    weight. *)

val imposed_count : t -> int
(** Number of {!impose_weights} commits. *)

val set_on_rebuild :
  t -> (now:Des.Time.t -> victim:int option -> unit) option -> unit
(** Install a hook invoked after every weight commit — shifts,
    drains, restores, recovery drift and imposed weights alike.
    [victim] is the server the commit moved traffic away from, when it
    had a single one: the shift's victim or the drained backend;
    [None] for restores, recovery-only commits and imposed vectors.
    The balancer uses this to apply its {!Remap} policy the instant
    the weights change (its repicks read, and so build, the new
    table); unset (the default) the commit path behaves exactly as
    before. *)

val last_action_at : t -> Des.Time.t option
(** Time of the most recent shift action (imposed commits excluded). *)

val stats : t -> Server_stats.t
val actions : t -> action list
(** Actions taken, oldest first. The history is capped at the most
    recent 4096 (trimmed in amortized O(1)) so an hours-long soak does
    not grow it without bound; {!action_count} keeps the true total. *)

val action_count : t -> int
val weights : t -> float array
(** Current weight vector (sums to 1). *)

val register_instant : t -> Des.Time.t -> unit
(** Record the first shift action at or after this instant when it is
    taken, for {!first_action_after}. Register before the run reaches
    the instant: the capped {!actions} history cannot answer later.
    [Cluster.Scenario] registers every fault instant it schedules with
    every LB's controller. Registering an instant again is a no-op.

    @raise Invalid_argument if the instant is new and an action at or
    after it was already taken. *)

val first_action_after : t -> Des.Time.t -> Des.Time.t option
(** Time of the first shift action at or after a registered instant —
    the paper's "reacts in milliseconds" reaction-time metric; [None]
    while no such action was taken. Exact however much of the
    {!actions} history was trimmed since.

    @raise Invalid_argument if the instant was never registered. *)
