type fault_report = {
  interval : Faults.Injector.interval;
  detection_ms : float option;
  recovery_ms : float option;
  recovered : bool;
}

type result = {
  duration : Des.Time.t;
  timeline : Faults.Timeline.t;
  reports : fault_report list;
  actions : int;
  final_weights : float array option;
  p95_us : float;
  responses : int;
  metrics : Telemetry.Snapshot.row list;
}

(* Three backends so a shift away from one victim has two places to
   go; recovery_rate > 0 so weights drift back to uniform once a fault
   clears — that drift is what the per-fault recovery latency below
   measures. The windowed-median estimate (A9) matters here: a loss
   burst feeds retransmission-sized RTT samples into the estimator,
   and the paper's EWMA never forgets them on a starved backend. *)
let default_scenario =
  {
    Scenario.default_config with
    Scenario.n_servers = 3;
    policy = Inband.Policy.Latency_aware;
    lb =
      {
        Inband.Config.default with
        Inband.Config.relative_threshold = 2.0;
        control_interval = Des.Time.ms 50;
        recovery_rate = 0.4;
        estimate_window = 33;
      };
  }

let default_timeline =
  let ev = Faults.Timeline.event in
  [
    ev ~at:(Des.Time.sec 2)
      ~target:(Faults.Timeline.Link "lb->s1")
      ~fault:(Faults.Timeline.Delay (Des.Time.ms 1))
      ~duration:(Des.Time.sec 3) ();
    ev ~at:(Des.Time.sec 7)
      ~target:(Faults.Timeline.Link "lb->s2")
      ~fault:(Faults.Timeline.Loss 0.15) ~duration:(Des.Time.sec 1) ();
    ev ~at:(Des.Time.sec 10) ~target:(Faults.Timeline.Server 0)
      ~fault:(Faults.Timeline.Slow 8.0) ~duration:(Des.Time.sec 2) ();
  ]

(* The backend a fault starves: link faults name the LB→server link,
   server/backend faults carry the index directly. Client-link faults
   have no single victim. *)
let victim_of_event (e : Faults.Timeline.event) =
  match e.target with
  | Faults.Timeline.Link name -> Scanf.sscanf_opt name "lb->s%d%!" Fun.id
  | Faults.Timeline.Server i | Faults.Timeline.Backend i -> Some i

(* First snapshot instant at/after [after] where the victim's weight is
   back at a meaningful share — the controller both stopped penalising
   it and the recovery pull handed traffic back. *)
let victim_recovered_at rows ~victim ~threshold ~after =
  List.find_map
    (fun (r : Telemetry.Snapshot.row) ->
      if
        r.metric = "ctl.weight"
        && r.index = Some victim
        && r.at >= after
        && r.value >= threshold
      then Some r.at
      else None)
    rows

let run ?(scenario = default_scenario) ?(duration = Des.Time.sec 14)
    ?(timeline = default_timeline) ?(recovered_fraction = 0.5) () =
  let s = Scenario.build scenario in
  let injector = Scenario.install_faults s timeline in
  (* Out-of-cadence snapshots at each fault's start and clearance give
     the recovery scan instants to look at even with a coarse
     metrics_interval. *)
  List.iter
    (fun (e : Faults.Timeline.event) ->
      Scenario.schedule_snap s ~at:e.at;
      Option.iter (fun d -> Scenario.schedule_snap s ~at:(e.at + d)) e.duration)
    timeline;
  Scenario.run s ~until:duration;
  Scenario.snap_all s;
  let metrics = Scenario.snap_rows s in
  let controller = Inband.Balancer.controller (Scenario.balancer s) in
  let n = Inband.Balancer.n_servers (Scenario.balancer s) in
  let to_ms a b = (Des.Time.to_float_s b -. Des.Time.to_float_s a) *. 1e3 in
  let reports =
    List.map
      (fun (interval : Faults.Injector.interval) ->
        let detection_ms =
          Option.bind controller (fun c ->
              Option.map (to_ms interval.applied_at)
                (Inband.Controller.first_action_after c interval.applied_at))
        in
        let recovery_ms =
          Option.bind interval.reverted_at (fun reverted ->
              Option.bind (victim_of_event interval.event) (fun victim ->
                  let threshold =
                    recovered_fraction /. float_of_int n
                  in
                  Option.map (to_ms reverted)
                    (victim_recovered_at metrics ~victim ~threshold
                       ~after:reverted)))
        in
        { interval; detection_ms; recovery_ms; recovered = recovery_ms <> None })
      (Faults.Injector.intervals injector)
  in
  let get_latency = Workload.Latency_log.(hist (Scenario.log s) Get) in
  let p95_us =
    float_of_int (Stats.Histogram.quantile get_latency 0.95) /. 1e3
  in
  let responses = Workload.Latency_log.count (Scenario.log s) in
  Scenario.shutdown s;
  {
    duration;
    timeline;
    reports;
    actions =
      (match controller with
      | Some c -> Inband.Controller.action_count c
      | None -> 0);
    final_weights = Option.map Inband.Controller.weights controller;
    p95_us;
    responses;
    metrics;
  }

let all_recovered result =
  List.for_all
    (fun r -> r.detection_ms <> None && r.recovered)
    result.reports

let print result =
  print_endline
    (Report.section
       (Fmt.str "Churn: %d faults over %a, latency-aware LB"
          (List.length result.timeline)
          Des.Time.pp result.duration));
  let headers = [ "fault"; "applied"; "cleared"; "detection"; "recovery" ] in
  let rows =
    List.map
      (fun r ->
        [
          Faults.Timeline.to_spec r.interval.Faults.Injector.event;
          Fmt.str "%a" Des.Time.pp r.interval.Faults.Injector.applied_at;
          (match r.interval.Faults.Injector.reverted_at with
          | Some t -> Fmt.str "%a" Des.Time.pp t
          | None -> "-");
          Report.opt_ms r.detection_ms;
          Report.opt_ms r.recovery_ms;
        ])
      result.reports
  in
  print_endline (Report.table ~headers rows);
  Fmt.pr "actions=%d  p95=%.1fus  responses=%d  recovered=%b@." result.actions
    result.p95_us result.responses (all_recovered result);
  match result.final_weights with
  | Some w ->
      Fmt.pr "final weights: %a@."
        Fmt.(array ~sep:(any " ") (fmt "%.3f"))
        w
  | None -> ()
