(** The PCC / recovery-latency frontier (the remap sweep).

    One deterministic scenario run per (remap policy x slow-backend
    fault intensity), with persistent client connections so affinity
    actually matters, reporting the counting {!Oracle}'s violation
    rate against the client-observed post-fault tail latency. The
    paper's {!Inband.Remap.Preserve} sits at one end (zero violations,
    slowest recovery: pinned flows ride out the whole fault on the
    slow backend); {!Inband.Remap.Immediate} at the other. *)

type cell = {
  remap : Inband.Remap.t;
  intensity : string;  (** Row label, e.g. ["heavy"]. *)
  slow_factor : float;  (** The fault's service-time multiplier. *)
  checked : int;
  violations : int;
  violation_rate : float;  (** Cumulative violations per checked packet. *)
  in_fault : int;  (** Violations inside the fault window (+ slack). *)
  remapped : int;  (** Balancer-side intentional migrations. *)
  actions : int;
  responses : int;
  pre_p95_us : float;  (** Median of pre-fault bucket GET p95s. *)
  post_p95_us : float;
      (** Median of during-fault bucket GET p95s — the tail the
          clients live with while the fault is active. *)
  post_p99_us : float;
  recovery_ms : float option;
      (** Fault onset to the first latency bucket whose GET p95 is
          back within 2x the pre-fault baseline and stays there for a
          sustained window ([sustain], default 400 ms); [None] = never
          recovered. Preserve can only recover once the fault reverts;
          remap policies recover as soon as the pinned flows migrate
          off. *)
}

type result = {
  duration : Des.Time.t;
  fault_at : Des.Time.t;
  fault_dur : Des.Time.t;
  cells : cell list;  (** Policy-major, intensities inner. *)
}

val run :
  ?scenario:Scenario.config ->
  ?duration:Des.Time.t ->
  ?fault_at:Des.Time.t ->
  ?fault_dur:Des.Time.t ->
  ?slack:Des.Time.t ->
  ?sustain:Des.Time.t ->
  ?policies:Inband.Remap.t list ->
  ?intensities:(string * float) list ->
  ?jobs:int ->
  unit ->
  result
(** Run the grid (defaults: 10 s per cell, fault at 2 s for 4 s,
    2 s attribution slack, 400 ms recovery sustain window). Each cell
    is an independent scenario run; [jobs] parallelises cells without
    changing any result. *)

val print : result -> unit

val check : result -> string list
(** The frontier's required shape (the CI frontier-smoke contract): the
    names of the tripwires the grid fails, [[]] when it holds.

    - ["preserve-pcc"]: a preserve cell counted a violation;
    - ["grid"]: the heavy intensity lacks a preserve, a ttl or an
      immediate cell, so the shape below cannot be judged;
    - ["rate-monotone"]: on the heavy column the violation rate is not
      strictly increasing preserve → ttl → immediate;
    - ["recovery-monotone"]: nor is the recovery time strictly
      decreasing (never recovered counts as infinite);
    - ["recovery-p95"]: immediate's during-fault p95 does not beat
      preserve's. *)
