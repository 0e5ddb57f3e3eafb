(* The PCC / recovery-latency frontier (the remap sweep).

   The paper's balancer never breaks an established connection: table
   rebuilds only steer *new* flows, so clients pinned to a faulted
   backend stay pinned until their connection ends. The non-preserving
   [Remap] policies trade exactly that guarantee for post-fault
   latency. This sweep measures the trade as a table: one cell per
   (remap policy x fault intensity), each an independent deterministic
   scenario run with a slow-backend fault, reporting the counting
   oracle's violation rate against the client-observed post-fault tail
   and the time for the p95 to return to its pre-fault baseline.

   Persistent connections ([requests_per_conn = 0]) are the whole
   point: with the paper's reconnect-every-200-requests workload,
   natural connection churn re-routes traffic within a couple hundred
   milliseconds and every remap policy looks alike. Pinned-forever
   flows are the adversarial case for Preserve — and the honest one
   for long-lived protocols (databases, gRPC channels, websockets). *)

type cell = {
  remap : Inband.Remap.t;
  intensity : string;
  slow_factor : float;
  checked : int;
  violations : int;
  violation_rate : float;
  in_fault : int;  (** Violations inside the fault window (+ slack). *)
  remapped : int;  (** Balancer-side intentional migrations. *)
  actions : int;
  responses : int;
  pre_p95_us : float;  (** Median of pre-fault bucket p95s. *)
  post_p95_us : float;  (** Median of during-fault bucket p95s. *)
  post_p99_us : float;
  recovery_ms : float option;
      (** Fault onset -> first bucket whose p95 is back within 2x the
          pre-fault baseline and stays there for a sustained window. *)
}

type result = {
  duration : Des.Time.t;
  fault_at : Des.Time.t;
  fault_dur : Des.Time.t;
  cells : cell list;  (** Policy-major, intensities inner. *)
}

(* Churn's damped controller profile, with mostly-persistent
   connections and a finer latency bucket so recovery scans have
   resolution. Two of the eight clients keep the paper's
   reconnect-every-200-requests behaviour: their connection churn is
   what keeps every backend's in-band estimate fresh. A purely
   persistent fleet starves a shifted-away backend of samples forever
   (no new flows ever probe it), freezing its estimate at whatever the
   startup transient left and locking the controller into shifting
   from a stale "worst" — the §5(4) recovery pull hands weight back,
   but weight without new flows produces no samples. *)
let default_scenario =
  let persistent =
    {
      Workload.Memtier.default_config with
      Workload.Memtier.requests_per_conn = 0;
    }
  in
  {
    Churn.default_scenario with
    Scenario.n_clients = 8;
    latency_bucket = Des.Time.ms 50;
    memtier = persistent;
    memtier_overrides =
      [ (6, Workload.Memtier.default_config); (7, Workload.Memtier.default_config) ];
  }

let default_policies =
  [
    Inband.Remap.Preserve;
    Inband.Remap.Ttl (Des.Time.us 300);
    Inband.Remap.Hot_k 8;
    Inband.Remap.Immediate;
  ]

let default_intensities = [ ("light", 2.0); ("medium", 4.0); ("heavy", 8.0) ]

let run_one ~scenario ~duration ~fault_at ~fault_dur ~slack ~sustain
    ~(remap : Inband.Remap.t) ~(intensity : string) ~(slow_factor : float) =
  let scenario =
    {
      scenario with
      Scenario.lb = { scenario.Scenario.lb with Inband.Config.remap };
    }
  in
  let s = Scenario.build scenario in
  let oracle = (Scenario.attach_pcc s).(0) in
  let injector =
    Scenario.install_faults s
      [
        Faults.Timeline.event ~at:fault_at ~target:(Faults.Timeline.Server 0)
          ~fault:(Faults.Timeline.Slow slow_factor) ~duration:fault_dur ();
      ]
  in
  Scenario.run s ~until:duration;
  let log = Scenario.log s in
  let rows q = Workload.Latency_log.series log ~op:Workload.Latency_log.Get ~q in
  let quant_us (r : Stats.Timeseries.row) = float_of_int r.quantile /. 1e3 in
  let pre, post =
    List.partition
      (fun (r : Stats.Timeseries.row) -> r.t_start < fault_at)
      (List.filter (fun (r : Stats.Timeseries.row) -> r.count > 0) (rows 0.95))
  in
  (* The post-fault tail is summarised over the fault-active window
     only: a whole-rest-of-run median would straddle the degraded and
     recovered halves and report whichever half holds one more
     bucket. The recovery scan below still walks every post-onset
     bucket — preserve only recovers after the revert. *)
  let during (r : Stats.Timeseries.row) =
    r.t_start >= fault_at && r.t_start < fault_at + fault_dur
  in
  let pre_p95_us = Samples.median_float (List.map quant_us pre) in
  let post_p95_us =
    Samples.median_float (List.map quant_us (List.filter during post))
  in
  let post_p99_us =
    Samples.median_float
      (List.filter_map
         (fun (r : Stats.Timeseries.row) ->
           if during r && r.count > 0 then Some (quant_us r) else None)
         (rows 0.99))
  in
  (* Recovery measured from fault *onset*: the first post-onset bucket
     whose p95 is back within 2x the pre-fault baseline and stays
     there for a sustained [sustain] window. Preserve can only recover
     when the fault reverts (pinned flows ride it out); a remap policy
     recovers as soon as it migrates the pinned flows off. The
     sustained-window condition keeps a lucky quiet bucket mid-fault
     from reading as recovery, while a late remap-churn excursion
     (weight hand-back after the revert also rebuilds) does not revoke
     a recovery that already held for the window. *)
  let recovery_ms =
    if Float.is_nan pre_p95_us then None
    else
      let threshold = 2.0 *. pre_p95_us in
      let rec scan = function
        | [] -> None
        | (r : Stats.Timeseries.row) :: rest ->
            if
              quant_us r <= threshold
              && List.for_all
                   (fun (r' : Stats.Timeseries.row) ->
                     r'.t_start >= r.t_start + sustain
                     || quant_us r' <= threshold)
                   rest
            then Some (Des.Time.to_float_s (r.t_start - fault_at) *. 1e3)
            else scan rest
      in
      scan post
  in
  let windows =
    List.map
      (fun (iv : Faults.Injector.interval) ->
        (iv.applied_at, Option.map (fun r -> r + slack) iv.reverted_at))
      (Faults.Injector.intervals injector)
  in
  let attribution = Oracle.attribute oracle windows in
  let balancer = Scenario.balancer s in
  let actions =
    match Inband.Balancer.controller balancer with
    | Some c -> Inband.Controller.action_count c
    | None -> 0
  in
  let responses = Workload.Latency_log.count (Scenario.log s) in
  let cell =
    {
      remap;
      intensity;
      slow_factor;
      checked = Oracle.checked oracle;
      violations = Oracle.violation_count oracle;
      violation_rate = Oracle.violation_rate oracle;
      in_fault = attribution.Oracle.in_fault;
      remapped = Inband.Balancer.remapped_flows balancer;
      actions;
      responses;
      pre_p95_us;
      post_p95_us;
      post_p99_us;
      recovery_ms;
    }
  in
  Scenario.shutdown s;
  cell

let run ?(scenario = default_scenario) ?(duration = Des.Time.sec 10)
    ?(fault_at = Des.Time.sec 2) ?(fault_dur = Des.Time.sec 4)
    ?(slack = Des.Time.sec 2) ?(sustain = Des.Time.ms 400)
    ?(policies = default_policies) ?(intensities = default_intensities) ?jobs
    () =
  let grid =
    List.concat_map
      (fun remap ->
        List.map (fun (name, factor) -> (remap, name, factor)) intensities)
      policies
  in
  let cells =
    Parallel.map ?jobs
      (fun (remap, intensity, slow_factor) ->
        run_one ~scenario ~duration ~fault_at ~fault_dur ~slack ~sustain
          ~remap ~intensity ~slow_factor)
      grid
  in
  { duration; fault_at; fault_dur; cells }

let opt_ms = function None -> "-" | Some ms -> Fmt.str "%.0fms" ms

let print result =
  print_endline
    (Report.section
       (Fmt.str
          "Remap frontier: slow-backend fault at %a for %a, %a total per cell"
          Des.Time.pp result.fault_at Des.Time.pp result.fault_dur Des.Time.pp
          result.duration));
  let headers =
    [
      "remap"; "fault"; "viol"; "rate"; "in-fault"; "remapped"; "post-p95";
      "post-p99"; "recovery";
    ]
  in
  let rows =
    List.map
      (fun c ->
        [
          Inband.Remap.to_string c.remap;
          Fmt.str "%s(x%.0f)" c.intensity c.slow_factor;
          string_of_int c.violations;
          Fmt.str "%.5f" c.violation_rate;
          string_of_int c.in_fault;
          string_of_int c.remapped;
          Fmt.str "%.0fus" c.post_p95_us;
          Fmt.str "%.0fus" c.post_p99_us;
          opt_ms c.recovery_ms;
        ])
      result.cells
  in
  print_endline (Report.table ~headers rows)

(* The trade-off's required shape. Preserve is the paper's contract and
   holds in every cell; down the heavy-fault column each step of remap
   aggression must buy recovery time and cost stickiness. *)
let check result =
  let heavy pred =
    List.find_opt
      (fun c -> pred c.remap && c.intensity = "heavy")
      result.cells
  in
  let preserve_clean =
    List.for_all
      (fun c -> c.remap <> Inband.Remap.Preserve || c.violations = 0)
      result.cells
  in
  let shape =
    match
      ( heavy (( = ) Inband.Remap.Preserve),
        heavy (function Inband.Remap.Ttl _ -> true | _ -> false),
        heavy (( = ) Inband.Remap.Immediate) )
    with
    | Some pre, Some ttl, Some imm ->
        let recovery c = Option.value c.recovery_ms ~default:infinity in
        [
          ( "rate-monotone",
            pre.violation_rate < ttl.violation_rate
            && ttl.violation_rate < imm.violation_rate );
          ( "recovery-monotone",
            recovery pre > recovery ttl && recovery ttl > recovery imm );
          ("recovery-p95", imm.post_p95_us < pre.post_p95_us);
        ]
    | _ -> [ ("grid", false) ]
  in
  Report.failed (("preserve-pcc", preserve_clean) :: shape)
