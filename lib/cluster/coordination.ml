(* Simulated control plane for an LB fleet (§5 Q4).

   Each member periodically publishes a snapshot of its per-server
   latency estimates, its current weights and the time of its last
   control action. Snapshots travel over a lossy channel with a fixed
   propagation delay, riding the DES clock — there is no side channel:
   a member knows about its peers only what has physically arrived.

   Two coordination policies act on the arriving snapshots:

   - [Gossip_average]: every controller keeps acting autonomously but
     (a) decides on the merged fleet-wide estimate (mean of its own
     live estimate and every peer's last-heard estimate, per server)
     and (b) passes its shifts through a fleet-epoch hysteresis gate —
     if any member is known to have shifted in the current fleet
     epoch, the shift is suppressed. The fleet performs ~one action
     per epoch instead of one per member per control interval.

   - [Leader]: the lowest-id member keeps autonomous control (over the
     merged estimate view); everyone else becomes a follower — local
     shifting and recovery disabled — and adopts the leader's weights
     from each snapshot, provided the snapshot is within the staleness
     bound and the weights materially differ from what the follower
     already has. Drained backends stay pinned throughout
     ([Controller.impose_weights] re-applies the floor).

   All bookkeeping is per-member so a fleet-wide metrics read is a sum
   over the members' registries: [coord.msgs_sent], [coord.msgs_recv],
   [coord.dropped] (sender-side), [coord.suppressed] (hysteresis vetoes
   and no-change imposes), [coord.imposed], [coord.stale], and a polled
   [coord.staleness_ns] gauge (age of the oldest live snapshot held). *)

type policy = Uncoordinated | Gossip_average | Leader

let policy_to_string = function
  | Uncoordinated -> "none"
  | Gossip_average -> "gossip"
  | Leader -> "leader"

let policy_of_string = function
  | "none" | "uncoordinated" -> Ok Uncoordinated
  | "gossip" | "gossip-average" -> Ok Gossip_average
  | "leader" -> Ok Leader
  | s -> Error (Fmt.str "unknown coordination policy %S (none|gossip|leader)" s)

type config = {
  policy : policy;
  period : Des.Time.t;
  delay : Des.Time.t;
  loss : float;
  fleet_epoch : Des.Time.t;
  staleness_bound : Des.Time.t;
}

let default_config =
  {
    policy = Uncoordinated;
    period = Des.Time.ms 10;
    delay = Des.Time.ms 1;
    loss = 0.0;
    fleet_epoch = Des.Time.ms 50;
    staleness_bound = Des.Time.ms 500;
  }

let validate config =
  if config.period <= 0 then Error "period must be positive"
  else if config.delay < 0 then Error "delay must be >= 0"
  else if config.loss < 0.0 || config.loss >= 1.0 then
    Error "loss must be in [0, 1)"
  else if config.fleet_epoch <= 0 then Error "fleet_epoch must be positive"
  else if config.staleness_bound <= 0 then
    Error "staleness_bound must be positive"
  else Ok ()

type snapshot = {
  from_lb : int;
  sent_at : Des.Time.t;
  estimates : float array;  (* nan = no estimate for that server yet *)
  weights : float array;
  last_action_at : Des.Time.t;  (* -1 = never acted *)
}

type member = {
  id : int;
  controller : Inband.Controller.t;
  inbox : snapshot option array;  (* latest heard, per peer id *)
  rng : Des.Rng.t;
  m_sent : Telemetry.Registry.counter;
  m_recv : Telemetry.Registry.counter;
  m_dropped : Telemetry.Registry.counter;
  m_suppressed : Telemetry.Registry.counter;
  m_imposed : Telemetry.Registry.counter;
  m_stale : Telemetry.Registry.counter;
}

type t = {
  engine : Des.Engine.t;
  config : config;
  members : member array;
  n_servers : int;
  timers : Des.Timer.t array;
}

let counter_value = Telemetry.Registry.Counter.value

(* Local view of one member: what it would publish right now. *)
let local_estimate member server =
  Inband.Server_stats.estimate (Inband.Controller.stats member.controller) server

let make_snapshot t member ~now =
  {
    from_lb = member.id;
    sent_at = now;
    estimates =
      Array.init t.n_servers (fun s ->
          match local_estimate member s with Some v -> v | None -> Float.nan);
    weights = Inband.Controller.weights member.controller;
    last_action_at =
      (match Inband.Controller.last_action_at member.controller with
      | Some at -> at
      | None -> -1);
  }

(* Mean of the member's own live estimate and every peer's last-heard
   estimate for one server; [None] until anybody has one. *)
let merged_estimate member server =
  let sum = ref 0.0 and count = ref 0 in
  (match local_estimate member server with
  | Some v ->
      sum := !sum +. v;
      incr count
  | None -> ());
  Array.iter
    (fun snap ->
      match snap with
      | Some s when not (Float.is_nan s.estimates.(server)) ->
          sum := !sum +. s.estimates.(server);
          incr count
      | Some _ | None -> ())
    member.inbox;
  if !count = 0 then None else Some (!sum /. float_of_int !count)

let epoch_of t at = at / t.config.fleet_epoch

(* Fleet-epoch hysteresis: veto the shift when any member — this one
   included — is known to have acted in the current epoch. Knowledge of
   peers is bounded by the publish period plus the propagation delay,
   so near-simultaneous shifts can still slip through; the point is
   thrash reduction, not mutual exclusion. *)
let gossip_gate t member ~now ~victim:_ =
  let e = epoch_of t now in
  let own_acted =
    match Inband.Controller.last_action_at member.controller with
    | Some at -> epoch_of t at = e
    | None -> false
  in
  let peer_acted =
    Array.exists
      (fun snap ->
        match snap with
        | Some s -> s.last_action_at >= 0 && epoch_of t s.last_action_at = e
        | None -> false)
      member.inbox
  in
  if own_acted || peer_acted then begin
    Telemetry.Registry.Counter.incr member.m_suppressed;
    false
  end
  else true

let weights_differ a b =
  let n = Array.length a in
  let differ = ref false in
  for i = 0 to n - 1 do
    if Float.abs (a.(i) -. b.(i)) > 1e-4 then differ := true
  done;
  !differ

let deliver t member snapshot =
  let now = Des.Engine.now t.engine in
  member.inbox.(snapshot.from_lb) <- Some snapshot;
  Telemetry.Registry.Counter.incr member.m_recv;
  match t.config.policy with
  | Leader when member.id <> 0 && snapshot.from_lb = 0 ->
      (* Follower: adopt the leader's weights, bounded-staleness. *)
      if now - snapshot.sent_at > t.config.staleness_bound then
        Telemetry.Registry.Counter.incr member.m_stale
      else if
        weights_differ snapshot.weights
          (Inband.Controller.weights member.controller)
      then begin
        Inband.Controller.impose_weights member.controller ~now
          snapshot.weights;
        Telemetry.Registry.Counter.incr member.m_imposed
      end
      else Telemetry.Registry.Counter.incr member.m_suppressed
  | Leader | Gossip_average | Uncoordinated -> ()

let publish t member =
  let now = Des.Engine.now t.engine in
  let snapshot = make_snapshot t member ~now in
  Array.iter
    (fun peer ->
      if peer.id <> member.id then begin
        Telemetry.Registry.Counter.incr member.m_sent;
        if t.config.loss > 0.0 && Des.Rng.float member.rng 1.0 < t.config.loss
        then Telemetry.Registry.Counter.incr member.m_dropped
        else
          Des.Engine.post_after t.engine ~delay:t.config.delay (fun () ->
              deliver t peer snapshot)
      end)
    t.members

let create ~engine ~config ~controllers ?registries ?rng () =
  (match validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Coordination.create: " ^ msg));
  (match registries with
  | Some r when Array.length r <> Array.length controllers ->
      invalid_arg "Coordination.create: registries/controllers mismatch"
  | Some _ | None -> ());
  let root_rng =
    match rng with Some r -> r | None -> Des.Rng.create ~seed:0xc0de
  in
  let n_members = Array.length controllers in
  let n_servers =
    if n_members = 0 then 0
    else Array.length (Inband.Controller.weights controllers.(0))
  in
  let members =
    Array.mapi
      (fun i controller ->
        let registry =
          match registries with
          | Some r -> r.(i)
          | None -> Telemetry.Registry.create ()
        in
        let counter name = Telemetry.Registry.counter registry name in
        {
          id = i;
          controller;
          inbox = Array.make n_members None;
          rng = Des.Rng.split root_rng ~label:(Fmt.str "coord-%d" i);
          m_sent = counter "coord.msgs_sent";
          m_recv = counter "coord.msgs_recv";
          m_dropped = counter "coord.dropped";
          m_suppressed = counter "coord.suppressed";
          m_imposed = counter "coord.imposed";
          m_stale = counter "coord.stale";
        })
      controllers
  in
  let t =
    {
      engine;
      config;
      members;
      n_servers;
      timers = [||];
    }
  in
  (* Policy wiring. *)
  Array.iter
    (fun member ->
      match config.policy with
      | Uncoordinated -> ()
      | Gossip_average ->
          Inband.Controller.set_estimate_override member.controller
            (Some (merged_estimate member));
          Inband.Controller.set_shift_gate member.controller
            (Some (gossip_gate t member))
      | Leader ->
          if member.id = 0 then
            Inband.Controller.set_estimate_override member.controller
              (Some (merged_estimate member))
          else Inband.Controller.set_autonomous member.controller false)
    members;
  (* Staleness gauges read the oldest live snapshot each member holds. *)
  (match registries with
  | Some regs ->
      Array.iteri
        (fun i member ->
          Telemetry.Registry.gauge_fn regs.(i) "coord.staleness_ns" (fun () ->
              let now = Des.Engine.now engine in
              Array.fold_left
                (fun acc snap ->
                  match snap with
                  | Some s ->
                      let age = float_of_int (now - s.sent_at) in
                      if Float.is_nan acc then age else Float.max acc age
                  | None -> acc)
                Float.nan member.inbox))
        members
  | None -> ());
  (* Publish timers, staggered inside the first period so members never
     all publish at the same instant (deterministic either way). *)
  let timers =
    if config.policy = Uncoordinated then [||]
    else
      Array.map
        (fun member ->
          let start =
            Des.Engine.now engine + config.period
            + (member.id * (config.period / Stdlib.max 1 n_members))
          in
          Des.Timer.every engine ~period:config.period ~start (fun () ->
              publish t member))
        members
  in
  { t with timers }

let stop t = Array.iter Des.Timer.stop t.timers

let sum t f =
  Array.fold_left (fun acc m -> acc + counter_value (f m)) 0 t.members

let messages_sent t = sum t (fun m -> m.m_sent)
let messages_received t = sum t (fun m -> m.m_recv)
let dropped t = sum t (fun m -> m.m_dropped)
let suppressed t = sum t (fun m -> m.m_suppressed)
let imposed t = sum t (fun m -> m.m_imposed)
let stale t = sum t (fun m -> m.m_stale)
