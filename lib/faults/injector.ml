type env = {
  link : string -> Netsim.Link.t list;
  server : int -> Memcache.Server.t option;
  controller : int -> Inband.Controller.t list;
}

type interval = {
  event : Timeline.event;
  applied_at : Des.Time.t;
  mutable reverted_at : Des.Time.t option;
}

type t = {
  engine : Des.Engine.t;
  mutable intervals_rev : interval list;
  mutable active : int;
  m_applied : Telemetry.Registry.counter;
  m_reverted : Telemetry.Registry.counter;
}

(* How many discrete steps a ramp is applied in. *)
let ramp_steps = 16

(* Resolve an event against the environment, failing fast on unknown
   targets so a typo in a timeline dies at install, not mid-run. The
   returned closures run at apply time: [apply] captures the
   pre-fault state and returns the matching undo. *)
let resolve env (e : Timeline.event) =
  (match Timeline.validate e with
  | Ok () -> ()
  | Error msg ->
      invalid_arg (Fmt.str "Faults.Injector: %s: %s" (Timeline.to_spec e) msg));
  let links name =
    match env.link name with
    | [] -> invalid_arg ("Faults.Injector: unknown link " ^ name)
    | ls -> ls
  in
  let server i =
    match env.server i with
    | Some s -> s
    | None -> invalid_arg (Fmt.str "Faults.Injector: unknown server %d" i)
  in
  let controllers i =
    match env.controller i with
    | [] ->
        invalid_arg
          (Fmt.str
             "Faults.Injector: no controller for backend %d (drain needs the \
              latency-aware policy)"
             i)
    | cs -> cs
  in
  match (e.target, e.fault) with
  | Timeline.Link name, (Timeline.Delay d | Timeline.Spike d) ->
      let ls = links name in
      fun _engine ->
        let undo =
          List.map
            (fun l ->
              let prev = Netsim.Link.extra_delay l in
              Netsim.Link.set_extra_delay l d;
              fun () -> Netsim.Link.set_extra_delay l prev)
            ls
        in
        fun () -> List.iter (fun f -> f ()) undo
  | Timeline.Link name, Timeline.Ramp target ->
      let ls = links name in
      let duration = Option.get e.duration in
      fun engine ->
        List.iter
          (fun l ->
            let prev = Netsim.Link.extra_delay l in
            for k = 1 to ramp_steps do
              ignore
                (Des.Engine.schedule_after engine
                   ~delay:(k * duration / ramp_steps) (fun () ->
                     Netsim.Link.set_extra_delay l
                       (prev + ((target - prev) * k / ramp_steps))))
            done)
          ls;
        fun () -> ()
  | Timeline.Link name, Timeline.Loss p ->
      let ls = links name in
      if p > 0.0 && not (List.for_all Netsim.Link.has_rng ls) then
        invalid_arg
          (Fmt.str
             "Faults.Injector: link %s has no rng (loss faults need one)" name);
      fun _engine ->
        let undo =
          List.map
            (fun l ->
              let prev = Netsim.Link.loss_prob l in
              Netsim.Link.set_loss_prob l p;
              fun () -> Netsim.Link.set_loss_prob l prev)
            ls
        in
        fun () -> List.iter (fun f -> f ()) undo
  | Timeline.Server i, Timeline.Slow f ->
      let s = server i in
      fun _engine ->
        let prev = Memcache.Server.slow_factor s in
        Memcache.Server.set_slow_factor s f;
        fun () -> Memcache.Server.set_slow_factor s prev
  | Timeline.Server i, Timeline.Pause ->
      let s = server i in
      let duration = Option.get e.duration in
      fun engine ->
        Memcache.Server.pause s ~until:(Des.Engine.now engine + duration);
        fun () -> Memcache.Server.resume s
  | Timeline.Backend i, Timeline.Drain ->
      let cs = controllers i in
      fun engine ->
        List.iter
          (fun c ->
            Inband.Controller.drain c ~now:(Des.Engine.now engine) ~server:i)
          cs;
        fun () ->
          List.iter
            (fun c ->
              Inband.Controller.restore c ~now:(Des.Engine.now engine)
                ~server:i)
            cs
  | (Timeline.Link _ | Timeline.Server _ | Timeline.Backend _), _ ->
      (* validate above rejects every fault/target mismatch *)
      assert false

let schedule t (e : Timeline.event) apply =
  ignore
    (Des.Engine.schedule t.engine ~at:e.at (fun () ->
         let undo = apply t.engine in
         let interval =
           { event = e; applied_at = Des.Engine.now t.engine; reverted_at = None }
         in
         t.intervals_rev <- interval :: t.intervals_rev;
         t.active <- t.active + 1;
         Telemetry.Registry.Counter.incr t.m_applied;
         match (e.duration, e.fault) with
         | None, _ | Some _, Timeline.Ramp _ ->
             (* Permanent faults (and ramps, whose duration is the
                transition time) never revert. *)
             ()
         | Some duration, _ ->
             ignore
               (Des.Engine.schedule_after t.engine ~delay:duration (fun () ->
                    undo ();
                    interval.reverted_at <- Some (Des.Engine.now t.engine);
                    t.active <- t.active - 1;
                    Telemetry.Registry.Counter.incr t.m_reverted))))

let install engine ~env ?telemetry timeline =
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let t =
    {
      engine;
      intervals_rev = [];
      active = 0;
      m_applied = Telemetry.Registry.counter registry "fault.applied";
      m_reverted = Telemetry.Registry.counter registry "fault.reverted";
    }
  in
  Telemetry.Registry.gauge_fn registry "fault.active" (fun () ->
      float_of_int t.active);
  (* Resolve everything up front, then schedule: a bad event aborts the
     whole install before any state changes. *)
  let resolved = List.map (fun e -> (e, resolve env e)) timeline in
  List.iter (fun (e, apply) -> schedule t e apply) resolved;
  t

let intervals t = List.rev t.intervals_rev
let active_faults t = t.active
