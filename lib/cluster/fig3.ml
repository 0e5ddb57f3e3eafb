type series_row = { t_s : float; count : int; p95_us : float; mean_us : float }

type run_result = {
  policy : Inband.Policy.t;
  series : series_row list;
  p95_before_us : float;
  p95_after_us : float;
  responses : int;
  throughput_rps : float;
  reaction_ms : float option;
  recovery_ms : float option;
  actions : int;
  weights_final : float array option;
  pool_disruption : float;
  victim_share_before : float;
  victim_share_after : float;
  metrics : Telemetry.Snapshot.row list;
}

type result = {
  duration : Des.Time.t;
  inject_at : Des.Time.t;
  inject_delay : Des.Time.t;
  runs : run_result list;
}

let victim = 1

(* A bucket counts as recovered once its p95 is back within this factor
   of the pre-injection baseline. *)
let recovery_factor = 1.5

let run_one ~scenario ~policy ~duration ~inject_at ~inject_delay =
  let config = { scenario with Scenario.policy } in
  let s = Scenario.build config in
  (* Scheduled before the injection-time snap, so the delay step fires
     first at that instant. *)
  ignore
    (Scenario.install_faults s
       [
         Faults.Timeline.event ~at:inject_at
           ~target:(Faults.Timeline.Link (Fmt.str "lb->s%d" victim))
           ~fault:(Faults.Timeline.Delay inject_delay) ();
       ]);
  (* An out-of-cadence snapshot at injection time captures the exact
     per-server flow assignment, splitting the victim's share into
     before/after; a final one closes the run. *)
  Scenario.schedule_snap s ~at:inject_at;
  Scenario.run s ~until:duration;
  Scenario.snap_all s;
  let balancer = Scenario.balancer s in
  let metrics = Scenario.snap_rows s in
  let rows = Workload.Latency_log.(series (Scenario.log s) ~op:Get ~q:0.95) in
  let series =
    List.map
      (fun r ->
        {
          t_s = Des.Time.to_float_s r.Stats.Timeseries.t_start;
          count = r.Stats.Timeseries.count;
          p95_us = float_of_int r.Stats.Timeseries.quantile /. 1e3;
          mean_us = r.Stats.Timeseries.mean /. 1e3;
        })
      rows
  in
  let before_buckets =
    List.filter
      (fun r ->
        r.t_s >= 1.0 && r.t_s < Des.Time.to_float_s inject_at -. 0.001)
      series
  in
  let after_buckets =
    List.filter
      (fun r -> r.t_s >= Des.Time.to_float_s inject_at +. 1.0)
      series
  in
  let baseline =
    Samples.median_float (List.map (fun r -> r.p95_us) before_buckets)
  in
  let p95_after =
    Samples.median_float (List.map (fun r -> r.p95_us) after_buckets)
  in
  let recovery_ms =
    let threshold = recovery_factor *. baseline in
    List.find_opt
      (fun r -> r.t_s >= Des.Time.to_float_s inject_at && r.p95_us <= threshold)
      series
    |> Option.map (fun r ->
           Float.max 0.0 ((r.t_s -. Des.Time.to_float_s inject_at) *. 1e3))
  in
  let reaction_ms, actions, weights_final =
    match Inband.Balancer.controller balancer with
    | Some c ->
        ( Option.map
            (fun at ->
              (Des.Time.to_float_s at -. Des.Time.to_float_s inject_at)
              *. 1e3)
            (Inband.Controller.first_action_after c inject_at),
          Inband.Controller.action_count c,
          Some (Inband.Controller.weights c) )
    | None -> (None, 0, None)
  in
  let n = Inband.Balancer.n_servers balancer in
  let total_flows snap = Array.fold_left ( + ) 0 snap in
  (* Per-server flow counts at injection time, read back from the
     snapshot row stream (the snap scheduled at [inject_at]). *)
  let flows_before =
    let latest = Array.make n 0 in
    List.iter
      (fun (r : Telemetry.Snapshot.row) ->
        if r.at <= inject_at && r.metric = "lb.flows_to" then
          match r.index with
          | Some i when i < n -> latest.(i) <- int_of_float r.value
          | Some _ | None -> ())
      metrics;
    latest
  in
  let flows_end = Array.init n (Inband.Balancer.flows_assigned_to balancer) in
  let flows_delta = Array.init n (fun i -> flows_end.(i) - flows_before.(i)) in
  let share snap =
    let total = total_flows snap in
    if total = 0 then nan
    else float_of_int snap.(victim) /. float_of_int total
  in
  let responses = Workload.Latency_log.count (Scenario.log s) in
  Scenario.shutdown s;
  {
    policy;
    series;
    p95_before_us = baseline;
    p95_after_us = p95_after;
    responses;
    throughput_rps = float_of_int responses /. Des.Time.to_float_s duration;
    reaction_ms;
    recovery_ms;
    actions;
    weights_final;
    pool_disruption = Maglev.Pool.total_disruption (Inband.Balancer.pool balancer);
    victim_share_before = share flows_before;
    victim_share_after = share flows_delta;
    metrics;
  }

(* The default profile adds one stabiliser over the paper's always-act
   rule: act only when the worst estimate exceeds 1.3x the best.
   Without it the controller keeps shuffling weights while the servers
   are equal, and if the fault happens to land on the currently
   heavy server, convergence can take seconds (the paper-exact profile
   is exercised by ablations A2/A9; see DESIGN.md §5). *)
let default_scenario =
  {
    Scenario.default_config with
    Scenario.lb =
      { Inband.Config.default with Inband.Config.relative_threshold = 1.3 };
  }

let run ?(scenario = default_scenario) ?jobs
    ?(policies = [ Inband.Policy.Static_maglev; Inband.Policy.Latency_aware ])
    ?(duration = Des.Time.sec 30) ?(inject_at = Des.Time.sec 10)
    ?(inject_delay = Des.Time.ms 1) () =
  let runs =
    (* One fully independent simulation per policy; run order does not
       affect results, so the per-policy runs parallelise freely. *)
    Parallel.map ?jobs
      (fun policy ->
        run_one ~scenario ~policy ~duration ~inject_at ~inject_delay)
      policies
  in
  { duration; inject_at; inject_delay; runs }

let print result =
  print_endline
    (Report.section
       (Fmt.str
          "Fig 3: p95 GET latency, %a injected on LB->server%d path at t=%a"
          Des.Time.pp result.inject_delay victim Des.Time.pp result.inject_at));
  let headers =
    [
      "policy";
      "p95 pre";
      "p95 post";
      "reaction";
      "recovery";
      "actions";
      "resp/s";
      "victim share pre/post";
    ]
  in
  let rows =
    List.map
      (fun r ->
        [
          Inband.Policy.to_string r.policy;
          Report.nan_us r.p95_before_us;
          Report.nan_us r.p95_after_us;
          Report.opt_ms r.reaction_ms;
          Report.opt_ms r.recovery_ms;
          string_of_int r.actions;
          Fmt.str "%.0f" r.throughput_rps;
          Fmt.str "%s / %s"
            (Report.pct r.victim_share_before)
            (Report.pct r.victim_share_after);
        ])
      result.runs
  in
  print_endline (Report.table ~headers rows);
  (* The time series themselves, interleaved per policy. *)
  List.iter
    (fun r ->
      Fmt.pr "p95 GET series (%a):@." Inband.Policy.pp r.policy;
      List.iter
        (fun row ->
          Fmt.pr "  t=%6.1fs  n=%7d  p95=%9.1fus  mean=%8.1fus@." row.t_s
            row.count row.p95_us row.mean_us)
        r.series;
      Fmt.pr "@.")
    result.runs
