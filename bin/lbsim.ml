(* lbsim — command-line driver for the in-band feedback LB simulator.

   Subcommands mirror the paper's experiments with the knobs exposed:

     lbsim fig2   [--duration 6] [--step-at 3] [--step-ms 1.0] ...
     lbsim fig3   [--duration 30] [--inject-at 10] [--policies ...] [--law ...]
     lbsim sweep  (alpha | epoch | timing | far | law | ... | remap)
     lbsim herd   [--coord none|gossip|leader|all] [--law ...] [--lbs 1,2,4]
                  [--check]
     lbsim run    [--faults FILE] [--assert-pcc] ...  (free-form scenario)
     lbsim churn  [--faults FILE] [--assert-recovery]
     lbsim soak   [--minutes 30] [--lbs N] [--coord ...] [--check]
     lbsim flows  [-n 65536] [--shards K] [--check]
     lbsim estimate --help      (run the estimator over a bulk flow)

   Two orthogonal selection axes recur: --policy is the routing policy
   (which backend each new connection goes to); --law is the control
   law (how the feedback controller moves the weight vector, under the
   latency-aware policy only).

   Five experiments carry a contract, checked by the module that owns
   the experiment: the law and remap sweeps on every run, herd, soak
   and flows under --check. Each prints one verdict line naming the
   tripwires that failed and exits 1 on any; the CI smoke gates are
   these runs. *)

open Cmdliner

let sec =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 -> Ok (Des.Time.of_float_s v)
    | Some _ | None -> Error (`Msg "expected a positive number of seconds")
  in
  Arg.conv (parse, fun ppf t -> Fmt.pf ppf "%g" (Des.Time.to_float_s t))

let policy =
  let parse s =
    match Inband.Policy.of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Inband.Policy.pp)

(* The control law is a different axis from the routing policy:
   --policy picks how new connections are routed, --law picks the
   decision rule the feedback controller runs (latency-aware policy
   only). *)
let law =
  let parse s =
    match Inband.Control_law.of_string s with
    | Ok l -> Ok l
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Inband.Control_law.pp)

let law_arg =
  Arg.(
    value
    & opt law Inband.Control_law.Shift_worst
    & info [ "law" ] ~docv:"LAW"
        ~doc:
          "Control law the feedback controller runs: $(b,shift-worst) \
           (the paper's alpha-shift, default), $(b,knapsack) \
           (capacity-curve solver), or $(b,gradient) (distributed \
           gradient descent on latency). Steers the weight vector; \
           distinct from $(b,--policy), which picks the routing \
           algorithm and must be latency-aware for any law to run.")

(* Third axis: what a committed table rebuild does to *established*
   flows. Preserve (default) is the paper's never-break-affinity
   behaviour; the others deliberately trade PCC for recovery. *)
let remap =
  let parse s =
    match Inband.Remap.of_string s with
    | Ok r -> Ok r
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Inband.Remap.pp)

let coord_policy =
  let parse s =
    Result.map_error (fun msg -> `Msg msg)
      (Cluster.Coordination.policy_of_string s)
  in
  let print ppf p = Fmt.string ppf (Cluster.Coordination.policy_to_string p) in
  Arg.conv (parse, print)

let lb_count =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= Cluster.Scenario.max_lbs -> Ok n
    | Some _ | None ->
        Error
          (`Msg
             (Fmt.str "expected a fleet size in 1..%d" Cluster.Scenario.max_lbs))
  in
  Arg.conv (parse, Fmt.int)

let remap_arg =
  Arg.(
    value
    & opt remap Inband.Remap.Preserve
    & info [ "remap" ] ~docv:"POLICY"
        ~doc:
          "What a table rebuild does to established flows: \
           $(b,preserve) (the paper, default: affinity never broken), \
           $(b,immediate) (every live flow re-consults the new table), \
           $(b,ttl:)$(i,DUR) (only flows idle at least $(i,DUR), e.g. \
           ttl:300us), or $(b,hot_k:)$(i,K) (only the K highest-rate \
           flows of the rebuild's victim). Anything but preserve \
           knowingly breaks per-connection consistency; the PCC oracle \
           counts each break.")

(* Flags several subcommands share, each with that subcommand's
   default. *)
let seed_arg ?(doc = "Random seed.") default =
  Arg.(value & opt int default & info [ "seed" ] ~doc)

let duration_arg default =
  Arg.(
    value & opt sec default & info [ "duration" ] ~doc:"Run length, seconds.")

let inject_at_arg default =
  Arg.(
    value & opt sec default
    & info [ "inject-at" ] ~doc:"Injection time, seconds.")

let inject_ms_arg =
  Arg.(
    value & opt float 1.0
    & info [ "inject-ms" ] ~doc:"Injected delay, milliseconds.")

let servers_arg =
  Arg.(
    value & opt int 2
    & info [ "servers" ] ~doc:"Number of memcached servers.")

let connections_arg =
  Arg.(
    value & opt int 4
    & info [ "connections" ] ~doc:"Connections per client.")

(* --- fig2 -------------------------------------------------------------- *)

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also dump the raw series as CSV.")

let metrics_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-csv" ] ~docv:"FILE"
        ~doc:
          "Dump the telemetry snapshot stream (every registered metric, \
           sampled periodically) as label,t_s,metric,index,value CSV.")

(* Write [render x] to the CSV file [path], when one was asked for, and
   say where. *)
let write_csv path render x =
  Option.iter
    (fun path ->
      Cluster.Csv.write_file ~path (render x);
      Fmt.pr "wrote %s@." path)
    path

let metrics_interval_arg =
  Arg.(
    value
    & opt sec (Des.Time.ms 500)
    & info [ "metrics-interval" ] ~docv:"SECONDS"
        ~doc:"Telemetry snapshot period, seconds.")

(* An experiment contract's verdict, named after its CI gate: one line,
   and exit 1 when any tripwire failed. *)
let verdict gate = function
  | [] -> Fmt.pr "%s: ok@." gate
  | failed ->
      Fmt.epr "%s FAILED (tripwire: %s)@." gate (String.concat ", " failed);
      exit 1

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run the independent simulations of the experiment on $(docv) \
           domains (0 = one per recommended core). Results are \
           byte-identical at any $(docv).")

let fig2_cmd =
  let run duration step_at step_ms window seed csv =
    let config =
      {
        Cluster.Bulk_flow.default_config with
        Cluster.Bulk_flow.duration;
        rtt_step_at = step_at;
        rtt_step = Des.Time.of_float_s (step_ms /. 1e3);
        window;
        seed;
      }
    in
    let result = Cluster.Fig2.run ~config () in
    Cluster.Fig2.print result;
    write_csv csv Cluster.Csv.fig2_samples result
  in
  let step_at =
    Arg.(value & opt sec (Des.Time.sec 3) & info [ "step-at" ] ~doc:"RTT step time, seconds.")
  in
  let step_ms =
    Arg.(value & opt float 1.0 & info [ "step-ms" ] ~doc:"RTT step size, milliseconds.")
  in
  let window =
    Arg.(value & opt int (32 * 1024) & info [ "window" ] ~doc:"Sender window, bytes.")
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Estimator accuracy on a backlogged flow (Fig 2).")
    Term.(
      const run
      $ duration_arg (Des.Time.sec 6)
      $ step_at $ step_ms $ window $ seed_arg 0x5eed2 $ csv_arg)

(* --- fig3 -------------------------------------------------------------- *)

let fig3_cmd =
  let run duration inject_at inject_ms policies servers connections alpha law
      remap seed csv metrics_csv metrics_interval jobs =
    let base = Cluster.Fig3.default_scenario in
    let scenario =
      {
        base with
        Cluster.Scenario.n_servers = servers;
        lb = { base.Cluster.Scenario.lb with Inband.Config.alpha; law; remap };
        memtier =
          {
            base.Cluster.Scenario.memtier with
            Workload.Memtier.connections;
          };
        metrics_interval;
        seed;
      }
    in
    let result =
      Cluster.Fig3.run ~scenario ~jobs ~policies ~duration ~inject_at
        ~inject_delay:(Des.Time.of_float_s (inject_ms /. 1e3))
        ()
    in
    Cluster.Fig3.print result;
    write_csv csv Cluster.Csv.fig3_series result;
    write_csv metrics_csv Cluster.Csv.fig3_metrics result
  in
  let policies =
    Arg.(
      value
      & opt (list policy) [ Inband.Policy.Static_maglev; Inband.Policy.Latency_aware ]
      & info [ "policies" ] ~doc:"Comma-separated policies to compare.")
  in
  let alpha =
    Arg.(value & opt float 0.10 & info [ "alpha" ] ~doc:"Controller shift fraction.")
  in
  Cmd.v
    (Cmd.info "fig3"
       ~doc:"Tail latency under a server delay injection (Fig 3).")
    Term.(
      const run
      $ duration_arg (Des.Time.sec 30)
      $ inject_at_arg (Des.Time.sec 10)
      $ inject_ms_arg $ policies $ servers_arg $ connections_arg $ alpha
      $ law_arg $ remap_arg $ seed_arg 0xfeed $ csv_arg $ metrics_csv_arg
      $ metrics_interval_arg $ jobs_arg)

(* --- sweeps ------------------------------------------------------------ *)

let sweep_cmd =
  let run which jobs =
    match which with
    | `Alpha ->
        Cluster.Ablations.print_alpha (Cluster.Ablations.alpha_sweep ~jobs ())
    | `Epoch ->
        Cluster.Ablations.print_epoch (Cluster.Ablations.epoch_sweep ~jobs ())
    | `Timing ->
        Cluster.Ablations.print_timing (Cluster.Ablations.timing_sweep ~jobs ())
    | `Far ->
        Cluster.Ablations.print_far (Cluster.Ablations.far_clients ~jobs ())
    | `Law ->
        let rows = Cluster.Ablations.law_sweep ~jobs () in
        Cluster.Ablations.print_laws rows;
        verdict "law-smoke" (Cluster.Ablations.law_check rows)
    | `Dependency ->
        Cluster.Dependency.print (Cluster.Dependency.run_cases ~jobs ())
    | `Estimator ->
        Cluster.Ablations.print_estimator
          (Cluster.Ablations.estimator_comparison ~jobs ())
    | `Source ->
        Cluster.Ablations.print_source
          (Cluster.Ablations.source_comparison ~jobs ())
    | `Remap ->
        let result = Cluster.Frontier.run ~jobs () in
        Cluster.Frontier.print result;
        verdict "frontier-smoke" (Cluster.Frontier.check result)
  in
  let sweeps =
    [
      ("alpha", `Alpha);
      ("epoch", `Epoch);
      ("timing", `Timing);
      ("far", `Far);
      ("law", `Law);
      ("dependency", `Dependency);
      ("estimator", `Estimator);
      ("source", `Source);
      ("remap", `Remap);
    ]
  in
  let which =
    Arg.(
      required
      & pos 0 (some (enum sweeps)) None
      & info [] ~docv:"SWEEP" ~doc:(Arg.doc_alts_enum sweeps))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Ablation sweeps: alpha, epoch, timing, far, law, dependency, \
          estimator, source, remap. The law sweep compares control laws \
          (shift-worst/knapsack/gradient) across fleet sizes; the remap \
          sweep maps the PCC-violation / recovery-latency frontier \
          across remap policies and fault intensities. The law and remap \
          sweeps check their contracts (the CI law-smoke and \
          frontier-smoke gates) and exit 1 if a tripwire fails. All \
          sweeps honour $(b,--jobs) and render identically at any job \
          count. The routing-policy comparison is $(b,lbsim fig3) \
          $(b,--policies) maglev,latency-aware,round-robin,least-conn,p2c.")
    Term.(const run $ which $ jobs_arg)

(* --- herd: coordinated LB fleet (extended A7) --------------------------- *)

let assert_pcc_arg =
  Arg.(
    value & flag
    & info [ "assert-pcc" ]
        ~doc:
          "Attach the per-connection-consistency oracle and exit nonzero \
           if any established flow ever changed backend (CI smoke check).")

(* [hard] is the --assert-pcc contract: nonzero exit on any violation.
   Without it the oracle is a counting instrument — non-preserving
   remap policies are *supposed* to produce violations. *)
let report_pcc ?(hard = true) oracle =
  Fmt.pr "pcc: %d packets checked, %d violations (rate %.5f)@."
    (Cluster.Oracle.checked oracle)
    (Cluster.Oracle.violation_count oracle)
    (Cluster.Oracle.violation_rate oracle);
  if hard && not (Cluster.Oracle.ok oracle) then begin
    List.iter
      (fun v -> Fmt.epr "pcc violation: %a@." Cluster.Oracle.pp_violation v)
      (Cluster.Oracle.violations oracle);
    exit 1
  end

let herd_cmd =
  let run policies law remap lbs duration inject_at check jobs =
    let rows =
      Cluster.Ablations.coord_sweep ~jobs ~law ~remap ~policies ~lb_counts:lbs
        ~duration ~inject_at ()
    in
    Cluster.Ablations.print_coord rows;
    if check then verdict "coord-smoke" (Cluster.Ablations.coord_check rows)
  in
  let all = Cluster.Coordination.[ Uncoordinated; Gossip_average; Leader ] in
  let policies =
    let parse = function
      | "all" -> Ok all
      | s -> Result.map (fun p -> [ p ]) (Arg.conv_parser coord_policy s)
    in
    let print ppf ps =
      if ps = all then Fmt.string ppf "all"
      else Fmt.(list ~sep:comma (Arg.conv_printer coord_policy)) ppf ps
    in
    Arg.conv (parse, print)
  in
  let coord =
    Arg.(
      value
      & opt policies all
      & info [ "coord" ] ~docv:"POLICY"
          ~doc:
            "Coordination policy to run: $(b,none), $(b,gossip), \
             $(b,leader), or $(b,all) for the full comparison.")
  in
  let lbs =
    Arg.(
      value
      & opt (list lb_count) [ 1; 2; 4 ]
      & info [ "lbs" ] ~docv:"N,..." ~doc:"Fleet sizes to sweep.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit nonzero if any established flow changed backend, or if, \
             at the largest fleet size, gossip or leader took more than \
             half of uncoordinated's control actions (judged when \
             $(b,--coord) runs $(b,none) and a coordinated policy). The \
             CI coord-smoke gate.")
  in
  Cmd.v
    (Cmd.info "herd"
       ~doc:
         "The extended A7 fleet experiment: per-policy churn and \
          convergence for 1..N LBs over one server pool, with the PCC \
          oracle attached to every LB. $(b,--law) swaps the control law \
          every controller runs (default the paper's shift-worst).")
    Term.(
      const run $ coord $ law_arg $ remap_arg $ lbs
      $ duration_arg (Des.Time.sec 12)
      $ inject_at_arg (Des.Time.sec 4)
      $ check $ jobs_arg)

(* --- run: free-form scenario ------------------------------------------- *)

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"FILE"
        ~doc:
          "Replay a fault timeline from $(docv) (grammar: 'AT TARGET \
           FAULT [for DURATION]' per line, e.g. '2s link:lb->s1 \
           delay+1ms for 3s'; targets link:lb->sN, link:cN->lb, \
           server:N, backend:N).")

let load_faults = function
  | None -> None
  | Some path -> begin
      match Faults.Timeline.load ~path with
      | Ok timeline -> Some timeline
      | Error msg ->
          Fmt.epr "%s: %s@." path msg;
          exit 2
    end

let print_fault_intervals injector =
  List.iter
    (fun (i : Faults.Injector.interval) ->
      Fmt.pr "fault %s: applied at %a%s@."
        (Faults.Timeline.to_spec i.Faults.Injector.event)
        Des.Time.pp i.Faults.Injector.applied_at
        (match i.Faults.Injector.reverted_at with
        | Some t -> Fmt.str ", cleared at %a" Des.Time.pp t
        | None -> ""))
    (Faults.Injector.intervals injector)

let run_cmd =
  let run duration policy law remap servers clients connections pipeline
      get_ratio inject_at inject_ms interfere zipf seed estimate_window
      threshold metrics faults assert_pcc =
    let lb =
      {
        Inband.Config.default with
        Inband.Config.estimate_window;
        relative_threshold = Float.max 1.0 threshold;
        law;
        remap;
      }
    in
    let config =
      {
        Cluster.Scenario.default_config with
        Cluster.Scenario.n_servers = servers;
        n_clients = clients;
        policy;
        lb;
        key_dist =
          (match zipf with
          | Some s -> Workload.Keyspace.Zipf s
          | None -> Workload.Keyspace.Uniform);
        memtier =
          {
            Workload.Memtier.default_config with
            Workload.Memtier.connections;
            pipeline;
            get_ratio;
          };
        interference =
          (match interfere with
          | Some server ->
              [
                ( server,
                  Stats.Dist.Exponential { mean = 4.0e6 },
                  Stats.Dist.Uniform { lo = 1.0e6; hi = 2.0e6 } );
              ]
          | None -> []);
        seed;
      }
    in
    let s = Cluster.Scenario.build config in
    (match inject_at with
    | Some at ->
        Cluster.Scenario.inject_server_delay s ~server:(servers - 1) ~at
          ~delay:(Des.Time.of_float_s (inject_ms /. 1e3))
    | None -> ());
    let injector =
      Option.map (Cluster.Scenario.install_faults s) (load_faults faults)
    in
    (* Attach the oracle whenever it has something to say: on request,
       or because a non-preserving remap policy will break PCC and the
       count is the point. *)
    let pcc =
      if assert_pcc || remap <> Inband.Remap.Preserve then
        Some (Cluster.Scenario.attach_pcc s).(0)
      else None
    in
    Cluster.Scenario.run s ~until:duration;
    Option.iter print_fault_intervals injector;
    let log = Cluster.Scenario.log s in
    let balancer = Cluster.Scenario.balancer s in
    let hist op = Workload.Latency_log.hist log op in
    let q h p = float_of_int (Stats.Histogram.quantile h p) /. 1e3 in
    let print_op name op =
      let h = hist op in
      if Stats.Histogram.count h > 0 then
        Fmt.pr "%s: n=%d p50=%.1fus p95=%.1fus p99=%.1fus mean=%.1fus@." name
          (Stats.Histogram.count h) (q h 0.5) (q h 0.95) (q h 0.99)
          (Stats.Histogram.mean h /. 1e3)
    in
    Fmt.pr "policy=%a servers=%d duration=%.1fs responses=%d@."
      Inband.Policy.pp policy servers
      (Des.Time.to_float_s duration)
      (Workload.Latency_log.count log);
    print_op "GET" Workload.Latency_log.Get;
    print_op "SET" Workload.Latency_log.Set;
    let registry = Cluster.Scenario.telemetry s in
    Fmt.pr "per-server flows:";
    for i = 0 to servers - 1 do
      Fmt.pr " %.0f"
        (Option.value ~default:0.0
           (Telemetry.Registry.value registry ~index:i "lb.flows_to"))
    done;
    Fmt.pr "@.";
    (match Inband.Balancer.controller balancer with
    | Some c ->
        let w = Inband.Controller.weights c in
        Fmt.pr "controller: %d actions, final weights = [%a]@."
          (Inband.Controller.action_count c)
          Fmt.(array ~sep:(any "; ") (fmt "%.3f"))
          w
    | None -> ());
    if metrics then begin
      Fmt.pr "@.%s@." (Cluster.Report.section "telemetry registry");
      Fmt.pr "%s@." (Cluster.Report.registry registry)
    end;
    match pcc with
    | Some oracle -> report_pcc ~hard:assert_pcc oracle
    | None -> ()
  in
  let pol =
    Arg.(
      value
      & opt policy Inband.Policy.Latency_aware
      & info [ "policy" ]
          ~doc:
            "Routing policy — how each new connection picks a backend \
             (static-maglev, latency-aware, round-robin, least-conn, \
             p2c). The feedback controller — and $(b,--law) — only \
             runs under latency-aware.")
  in
  let clients = Arg.(value & opt int 1 & info [ "clients" ] ~doc:"Client hosts.") in
  let pipeline =
    Arg.(value & opt int 2 & info [ "pipeline" ] ~doc:"Pipelined requests per connection.")
  in
  let get_ratio =
    Arg.(value & opt float 0.5 & info [ "get-ratio" ] ~doc:"Fraction of GETs.")
  in
  let inject_at =
    Arg.(
      value
      & opt (some sec) None
      & info [ "inject-at" ]
          ~doc:"Inject +inject-ms on the last server's path at this time.")
  in
  let interfere =
    Arg.(
      value
      & opt (some int) None
      & info [ "interfere" ]
          ~doc:"Give this server 1-2 ms stalls every ~4 ms (GC-style).")
  in
  let zipf =
    Arg.(value & opt (some float) None & info [ "zipf" ] ~doc:"Zipf key skew exponent.")
  in
  let estimate_window =
    Arg.(
      value & opt int 0
      & info [ "estimate-window" ]
          ~doc:"0 = EWMA estimates (paper); w>0 = median of last w samples.")
  in
  let threshold =
    Arg.(
      value & opt float 1.0
      & info [ "threshold" ]
          ~doc:"Act only when worst >= threshold x best estimate.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Also print every registered telemetry metric as a table.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a free-form cluster scenario and print a summary.")
    Term.(
      const run
      $ duration_arg (Des.Time.sec 10)
      $ pol $ law_arg $ remap_arg $ servers_arg $ clients $ connections_arg
      $ pipeline $ get_ratio $ inject_at $ inject_ms_arg $ interfere $ zipf
      $ seed_arg 0xfeed $ estimate_window $ threshold $ metrics $ faults_arg
      $ assert_pcc_arg)

(* --- churn: multi-fault timeline with per-fault latencies --------------- *)

let churn_cmd =
  let run duration seed remap faults assert_recovery csv metrics_csv =
    let timeline =
      match load_faults faults with
      | Some timeline -> timeline
      | None -> Cluster.Churn.default_timeline
    in
    let scenario =
      { Cluster.Churn.default_scenario with Cluster.Scenario.seed }
    in
    let scenario =
      {
        scenario with
        Cluster.Scenario.lb =
          { scenario.Cluster.Scenario.lb with Inband.Config.remap };
      }
    in
    let result = Cluster.Churn.run ~scenario ~duration ~timeline () in
    Cluster.Churn.print result;
    write_csv csv Cluster.Csv.churn_faults result;
    write_csv metrics_csv Cluster.Csv.churn_metrics result;
    if assert_recovery && not (Cluster.Churn.all_recovered result) then begin
      Fmt.epr "churn: controller did not recover from every fault@.";
      exit 1
    end
  in
  let assert_recovery =
    Arg.(
      value & flag
      & info [ "assert-recovery" ]
          ~doc:
            "Exit nonzero unless every fault was detected, cleared, and \
             the weights healed back to uniform (CI smoke check).")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Replay a multi-fault timeline against the latency-aware LB and \
          report per-fault detection/recovery latency.")
    Term.(
      const run
      $ duration_arg (Des.Time.sec 14)
      $ seed_arg 0xfeed $ remap_arg $ faults_arg $ assert_recovery $ csv_arg
      $ metrics_csv_arg)

(* --- soak: long-horizon churn + adversarial clients -------------------- *)

let soak_cmd =
  let run minutes warmup_s windows seed check lbs coord =
    let base = Cluster.Soak.default_config in
    let duration = Des.Time.sec (minutes * 60) in
    let scenario = { base.Cluster.Soak.scenario with Cluster.Scenario.seed } in
    let config =
      {
        base with
        Cluster.Soak.duration;
        warmup = Stdlib.min (Des.Time.sec warmup_s) (duration / 4);
        windows;
        scenario;
      }
    in
    let config =
      match (lbs, coord) with
      | None, None -> config
      | lbs, coord ->
          let n_lbs = Option.value lbs ~default:2 in
          let policy =
            Option.value coord ~default:Cluster.Coordination.Gossip_average
          in
          {
            config with
            Cluster.Soak.scenario =
              {
                scenario with
                Cluster.Scenario.n_lbs;
                n_clients = 2 * n_lbs;
                coord =
                  {
                    Cluster.Coordination.default_config with
                    Cluster.Coordination.policy;
                  };
              };
            (* Every LB's link to server 1 is delayed 1 ms for 20 s of
               every 40 s: the fleet re-converges round after round. *)
            timeline =
              [
                Faults.Timeline.event ~at:(Des.Time.sec 10)
                  ~target:(Faults.Timeline.Link "lb->s1")
                  ~fault:(Faults.Timeline.Delay (Des.Time.ms 1))
                  ~duration:(Des.Time.sec 20) ();
              ];
            fault_period = Des.Time.sec 40;
          }
    in
    let result = Cluster.Soak.run ~config () in
    Cluster.Soak.print ~config result;
    if check then verdict "soak-smoke" (Cluster.Soak.check config result)
  in
  let minutes =
    Arg.(
      value & opt int 30
      & info [ "minutes" ] ~doc:"Simulated soak length, minutes.")
  in
  let warmup =
    Arg.(
      value & opt int 60
      & info [ "warmup" ]
          ~doc:
            "Seconds excluded from the flatness and health checks \
             (capped at a quarter of the duration).")
  in
  let windows =
    Arg.(
      value & opt int 6
      & info [ "windows" ] ~doc:"Flatness windows over [warmup, duration].")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit nonzero unless every watched gauge stayed flat, no \
             flow or connection was stuck after the drain, the latency \
             estimator stayed finite, the PCC oracle saw zero \
             violations, and a gap flood, when one attacks, hit the \
             reassembly cap (the CI soak-smoke gate).")
  in
  let lbs =
    Arg.(
      value
      & opt (some lb_count) None
      & info [ "lbs" ] ~docv:"N"
          ~doc:
            "Soak an $(b,N)-LB fleet of the churn cluster instead of a \
             single LB. Each LB gets its own VIP, estimator and \
             controller plus two clients; server-delay pulses replace \
             the fault timeline and force the fleet to re-converge \
             throughout. Implies $(b,--coord) gossip unless given.")
  in
  let coord =
    Arg.(
      value
      & opt (some coord_policy) None
      & info [ "coord" ] ~docv:"POLICY"
          ~doc:
            "Control-plane policy for the fleet soak: $(b,none), \
             $(b,gossip) or $(b,leader). Implies $(b,--lbs) 2 unless \
             given.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Soak the churn cluster for hours of simulated time under \
          repeating faults and adversarial clients (slowloris, pipeline \
          bursts, reconnect storms, segment-gap floods, RST floods), \
          asserting that memory telemetry stays flat and nothing gets \
          stuck. With $(b,--lbs)/$(b,--coord), soak a coordinated \
          multi-LB fleet instead.")
    Term.(
      const run $ minutes $ warmup $ windows $ seed_arg 0xfeed $ check $ lbs
      $ coord)

(* --- flows: sharded flow-scale churn ---------------------------------- *)

let flows_cmd =
  let run n shards seed check csv =
    let shards = Cluster.Sharded.resolve_shards shards in
    let r = Cluster.Sharded.flows ~shards ~seed ~n () in
    let s = r.Cluster.Sharded.stats in
    Fmt.pr "flows: n=%d shards=%d events=%d responses=%d active_peak=%d@." r.n
      r.shards r.events r.responses r.active_peak;
    Fmt.pr
      "  wall=%.2fs  aggregate=%.0f events/s  words/flow=%.1f  \
       full_major=%.2fs@."
      r.wall_s r.events_per_sec r.words_per_flow r.full_major_s;
    if r.shards > 1 then begin
      let max_stall =
        Array.fold_left Stdlib.max 0.0 s.Des.Shard.stall_seconds
      in
      Fmt.pr "  windows=%d  cross-shard posts=%d  max barrier stall=%.3fs@."
        s.Des.Shard.windows s.Des.Shard.remote_posts max_stall
    end;
    write_csv csv (fun r -> r.Cluster.Sharded.csv) r;
    if check then begin
      (* A sharded run is judged against the same scenario with
         fixed-width windows and on one shard. *)
      let fixed, one_shard =
        if shards < 2 then (None, None)
        else
          let f = Cluster.Sharded.flows ~shards ~seed ~adaptive:false ~n () in
          let r1 = Cluster.Sharded.flows ~shards:1 ~seed ~n () in
          Fmt.pr
            "  fixed-width drain windows=%d (adaptive %d)  1-shard \
             rerun=%.0f events/s@."
            f.Cluster.Sharded.drain_windows r.drain_windows
            r1.Cluster.Sharded.events_per_sec;
          (Some f, Some r1)
      in
      let cores = Domain.recommended_domain_count () in
      verdict
        (if shards < 2 then "flow-smoke" else "shard-smoke")
        (Cluster.Sharded.check ~cores ?one_shard ?fixed r)
    end
  in
  let n =
    Arg.(
      value & opt int 65_536
      & info [ "n" ] ~docv:"N" ~doc:"Concurrent flows to run to completion.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Engine shards (domains). 0 means one per available core. \
             The per-client CSV summary is byte-identical for any \
             value.")
  in
  let seed =
    seed_arg 0
      ~doc:
        "Deterministically perturb the flow-to-client map and flow port \
         space (0 = the historical workload)."
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit nonzero if the single-engine rate falls below half the \
             record in BENCH_pr4.json, or live words per flow exceed 1.5x \
             the record in BENCH_pr23.json. With two or more shards, also \
             rerun the scenario with fixed-width windows and on one \
             shard: both CSVs must equal this run's, fixed-width must \
             take at least 3x the adaptive drain windows, and with a core \
             per shard the aggregate rate must reach 2x the BENCH_pr4.json \
             rate. The CI flow-smoke and shard-smoke gates.")
  in
  Cmd.v
    (Cmd.info "flows"
       ~doc:
         "Run the flow-scale churn workload (N concurrent flows, FIN + \
          reincarnation churn, idle-expiry drain) on K parallel engine \
          shards synchronized in lookahead-bounded windows.")
    Term.(const run $ n $ shards $ seed $ check $ csv_arg)

(* --- estimate: run the estimators over a packet-timestamp trace ------- *)

let estimate_cmd =
  let run path delta_us epoch_ms =
    let timestamps =
      let ic = if path = "-" then stdin else open_in path in
      Fun.protect
        ~finally:(fun () -> if path <> "-" then close_in ic)
        (fun () ->
          let rec read acc =
            match input_line ic with
            | line -> begin
                match int_of_string_opt (String.trim line) with
                | Some t -> read (t :: acc)
                | None -> read acc
              end
            | exception End_of_file -> List.rev acc
          in
          read [])
    in
    match timestamps with
    | [] -> Fmt.epr "no timestamps in %s@." path
    | first :: rest -> begin
        match delta_us with
        | Some d ->
            (* Single FIXEDTIMEOUT instance. *)
            let ft =
              Inband.Fixed_timeout.create ~delta:(Des.Time.us d) ~now:first
            in
            Fmt.pr "t_s,t_lb_us@.";
            List.iter
              (fun now ->
                match Inband.Fixed_timeout.on_packet ft ~now with
                | Some sample ->
                    Fmt.pr "%.6f,%.3f@." (Des.Time.to_float_s now)
                      (Des.Time.to_float_us sample)
                | None -> ())
              rest
        | None ->
            (* Full ENSEMBLETIMEOUT. *)
            let config =
              {
                Inband.Config.default with
                Inband.Config.epoch = Des.Time.ms epoch_ms;
              }
            in
            let e = Inband.Ensemble.create ~config in
            let flow = Inband.Ensemble.create_flow e ~now:first in
            Fmt.pr "t_s,t_lb_us,chosen_delta_us@.";
            List.iter
              (fun now ->
                match Inband.Ensemble.on_packet e flow ~now with
                | Some sample ->
                    Fmt.pr "%.6f,%.3f,%.1f@." (Des.Time.to_float_s now)
                      (Des.Time.to_float_us sample)
                      (Des.Time.to_float_us
                         (Inband.Ensemble.chosen_timeout e flow))
                | None -> ())
              rest
      end
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "File of packet arrival timestamps in nanoseconds, one per \
             line ('-' for stdin). Non-numeric lines are skipped.")
  in
  let delta_us =
    Arg.(
      value
      & opt (some int) None
      & info [ "delta-us" ]
          ~doc:"Run a single FIXEDTIMEOUT with this timeout instead of \
                the full ensemble.")
  in
  let epoch_ms =
    Arg.(value & opt int 64 & info [ "epoch-ms" ] ~doc:"Ensemble epoch length.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Run the in-band latency estimators over a packet-timestamp \
          trace and print the samples as CSV.")
    Term.(const run $ path $ delta_us $ epoch_ms)

let main_cmd =
  Cmd.group
    (Cmd.info "lbsim" ~version:"1.0.0"
       ~doc:
         "Packet-level simulator for in-band feedback control at load \
          balancers (HotNets '22 reproduction).")
    [
      fig2_cmd;
      fig3_cmd;
      sweep_cmd;
      herd_cmd;
      estimate_cmd;
      run_cmd;
      churn_cmd;
      soak_cmd;
      flows_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
