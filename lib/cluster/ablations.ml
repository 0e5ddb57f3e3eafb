(* --- A2: shift fraction alpha ---------------------------------------- *)

type alpha_row = {
  alpha : float;
  p95_before_us : float;
  p95_after_us : float;
  reaction_ms : float option;
  recovery_ms : float option;
  actions : int;
  disruption : float;
}

let alpha_sweep ?jobs ?(alphas = [ 0.025; 0.05; 0.1; 0.2; 0.4 ])
    ?(duration = Des.Time.sec 15) ?(inject_at = Des.Time.sec 5) () =
  Parallel.map ?jobs
    (fun alpha ->
      let scenario =
        {
          Scenario.default_config with
          Scenario.lb = { Inband.Config.default with Inband.Config.alpha };
        }
      in
      let result =
        Fig3.run ~scenario ~policies:[ Inband.Policy.Latency_aware ] ~duration
          ~inject_at ()
      in
      match result.Fig3.runs with
      | [ r ] ->
          {
            alpha;
            p95_before_us = r.Fig3.p95_before_us;
            p95_after_us = r.Fig3.p95_after_us;
            reaction_ms = r.Fig3.reaction_ms;
            recovery_ms = r.Fig3.recovery_ms;
            actions = r.Fig3.actions;
            disruption = r.Fig3.pool_disruption;
          }
      | [] | _ :: _ -> assert false)
    alphas

let print_alpha rows =
  print_endline
    (Report.section "Ablation A2: shift fraction alpha (latency-aware, Fig 3 setup)");
  print_endline
    (Report.table
       ~headers:
         [ "alpha"; "p95 pre"; "p95 post"; "reaction"; "recovery"; "actions"; "disruption" ]
       (List.map
          (fun r ->
            [
              Report.pct r.alpha;
              Report.nan_us r.p95_before_us;
              Report.nan_us r.p95_after_us;
              Report.opt_ms r.reaction_ms;
              Report.opt_ms r.recovery_ms;
              string_of_int r.actions;
              Fmt.str "%.2f" r.disruption;
            ])
          rows))

(* --- A3: epoch length -------------------------------------------------- *)

type epoch_row = {
  epoch_ms : float;
  err_before : float;
  err_after : float;
  ensemble_samples : int;
}

let epoch_sweep ?jobs
    ?(epochs =
      [ Des.Time.ms 16; Des.Time.ms 32; Des.Time.ms 64; Des.Time.ms 128; Des.Time.ms 256 ])
    () =
  Parallel.map ?jobs
    (fun epoch ->
      let config =
        {
          Bulk_flow.default_config with
          Bulk_flow.lb = { Inband.Config.default with Inband.Config.epoch };
        }
      in
      let result = Fig2.run ~config () in
      {
        epoch_ms = Des.Time.to_float_ms epoch;
        err_before = result.Fig2.err_before;
        err_after = result.Fig2.err_after;
        ensemble_samples =
          result.Fig2.ensemble.Fig2.before.Fig2.count
          + result.Fig2.ensemble.Fig2.after.Fig2.count;
      })
    epochs

let print_epoch rows =
  print_endline (Report.section "Ablation A3: ensemble epoch length E");
  print_endline
    (Report.table
       ~headers:[ "epoch"; "err (pre-step)"; "err (post-step)"; "samples" ]
       (List.map
          (fun r ->
            [
              Fmt.str "%.0fms" r.epoch_ms;
              Report.pct r.err_before;
              Report.pct r.err_after;
              string_of_int r.ensemble_samples;
            ])
          rows))

(* --- A4: timing-assumption violations --------------------------------- *)

type timing_row = {
  label : string;
  err_before : float;
  err_after : float;
  n_before : int;
  n_after : int;
}

let timing_sweep ?jobs () =
  let base = Bulk_flow.default_config in
  let variants =
    [
      ("coalesced acks (baseline)", base);
      ( "delayed acks (2, 500us)",
        {
          base with
          Bulk_flow.server_ack_policy =
            Tcpsim.Conn.Ack_delayed { every = 2; timeout = Des.Time.us 500 };
        } );
      ( "per-packet acks",
        { base with Bulk_flow.server_ack_policy = Tcpsim.Conn.Ack_immediate }
      );
      ( "paced acks (1ms)",
        {
          base with
          Bulk_flow.server_ack_policy = Tcpsim.Conn.Ack_paced (Des.Time.ms 1);
        } );
      ( "app-limited sender",
        {
          base with
          Bulk_flow.refill_pause =
            Some (Stats.Dist.Exponential { mean = 3_000_000.0 });
        } );
    ]
  in
  Parallel.map ?jobs
    (fun (label, config) ->
      let r = Fig2.run ~config () in
      {
        label;
        err_before = r.Fig2.err_before;
        err_after = r.Fig2.err_after;
        n_before = r.Fig2.ensemble.Fig2.before.Fig2.count;
        n_after = r.Fig2.ensemble.Fig2.after.Fig2.count;
      })
    variants

let print_timing rows =
  print_endline
    (Report.section "Ablation A4: packet-timing assumption violations (§5 Q2)");
  print_endline
    (Report.table
       ~headers:[ "client/server behaviour"; "err (pre)"; "err (post)"; "n(pre)"; "n(post)" ]
       (List.map
          (fun r ->
            [
              r.label;
              Report.pct r.err_before;
              Report.pct r.err_after;
              string_of_int r.n_before;
              string_of_int r.n_after;
            ])
          rows))

(* --- A7/A8: LB fleets (§5 Q4) -------------------------------------------- *)

(* Every LB runs its own estimator and controller over one shared pool.
   Uncoordinated, each acts on a partial view and the fleet over-shifts
   and oscillates — the thundering herd the paper leaves open. The
   coordination policies (gossip, leader) and the control laws are
   config changes on this one scenario. *)
let fleet_scenario =
  {
    Scenario.default_config with
    Scenario.n_lbs = 2;
    n_clients = 4;
    policy = Inband.Policy.Latency_aware;
    (* Stabilised controller so the single-LB baseline converges and the
       sweep isolates the fleet effect. *)
    lb =
      {
        Inband.Config.default with
        Inband.Config.relative_threshold = 1.5;
        ewma_alpha = 0.05;
        control_interval = Des.Time.ms 5;
        recovery_rate = 0.02;
      };
    table_size = 1021;
    memtier =
      { Workload.Memtier.default_config with Workload.Memtier.connections = 1 };
    key_count = 5_000;
    seed = 0x2b1b;
  }

type herd_row = {
  n_lbs : int;
  coord : Coordination.policy;
  law : Inband.Control_law.kind;
  p95_before_us : float;
  p95_after_us : float;
  total_actions : int;
  per_lb_actions : int list;
  victim_flips : int;
  victim_weight_mean : float;
  converged_ms : float;
  msgs : int;
  suppressed : int;
  imposed : int;
  pcc_checked : int;
  pcc_violations : int;
}

let herd_victim = 1

let controllers s =
  Array.to_list (Scenario.balancers s)
  |> List.filter_map Inband.Balancer.controller

(* Mean of the victim's weight across the fleet, read live. *)
let fleet_victim_weight s =
  match controllers s with
  | [] -> nan
  | cs ->
      List.fold_left
        (fun acc c -> acc +. (Inband.Controller.weights c).(herd_victim))
        0.0 cs
      /. float_of_int (List.length cs)

(* Controller actions whose victim differs from that controller's
   previous victim — a proxy for hunting. *)
let flips_of c =
  let rec count prev acc = function
    | [] -> acc
    | a :: rest ->
        let v = a.Inband.Controller.victim in
        let acc =
          match prev with Some p when p <> v -> acc + 1 | Some _ | None -> acc
        in
        count (Some v) acc rest
  in
  count None 0 (Inband.Controller.actions c)

let herd_one ?(coord = Coordination.Uncoordinated)
    ?(law = Inband.Control_law.Shift_worst) ?(remap = Inband.Remap.Preserve)
    ~n_lbs ~duration ~inject_at () =
  let s =
    Scenario.build
      {
        fleet_scenario with
        Scenario.n_lbs;
        coord = { Coordination.default_config with Coordination.policy = coord };
        lb = { fleet_scenario.Scenario.lb with Inband.Config.law; remap };
      }
  in
  let oracles = Scenario.attach_pcc s in
  Scenario.inject_server_delay s ~server:herd_victim ~at:inject_at
    ~delay:(Des.Time.ms 1);
  (* Convergence probe: the first instant at which the fleet-mean victim
     weight has fallen to <= 0.1 — how long the whole fleet takes to
     concentrate traffic away from the victim (sampled every 50 ms).
     Coordination trades churn against this: gossip is fleet-epoch
     limited, leader mode waits on snapshot propagation. *)
  let converged_at = ref None in
  let engine = Scenario.engine s in
  ignore
    (Des.Timer.every engine ~period:(Des.Time.ms 50) (fun () ->
         if !converged_at = None && fleet_victim_weight s <= 0.1 then
           converged_at := Some (Des.Engine.now engine)));
  Scenario.run s ~until:duration;
  let rows = Workload.Latency_log.(series (Scenario.log s) ~op:Get ~q:0.95) in
  let per_lb_actions =
    List.map Inband.Controller.action_count (controllers s)
  in
  let coord_count f =
    match Scenario.coordination s with Some c -> f c | None -> 0
  in
  let sum_oracles f = Array.fold_left (fun acc o -> acc + f o) 0 oracles in
  let row =
    {
      n_lbs;
      coord;
      law;
      p95_before_us =
        Samples.windowed_quantile_us rows ~lo:(Des.Time.sec 1) ~hi:inject_at;
      p95_after_us =
        Samples.windowed_quantile_us rows
          ~lo:(inject_at + Des.Time.sec 1)
          ~hi:duration;
      total_actions = List.fold_left ( + ) 0 per_lb_actions;
      per_lb_actions;
      victim_flips =
        List.fold_left (fun acc c -> acc + flips_of c) 0 (controllers s);
      victim_weight_mean = fleet_victim_weight s;
      converged_ms =
        (match !converged_at with
        | Some at -> Des.Time.to_float_s at *. 1e3
        | None -> nan);
      msgs = coord_count Coordination.messages_sent;
      suppressed = coord_count Coordination.suppressed;
      imposed = coord_count Coordination.imposed;
      pcc_checked = sum_oracles Oracle.checked;
      pcc_violations = sum_oracles Oracle.violation_count;
    }
  in
  Scenario.shutdown s;
  row

let coord_sweep ?jobs ?law ?remap
    ?(policies = Coordination.[ Uncoordinated; Gossip_average; Leader ])
    ?(lb_counts = [ 1; 2; 4 ]) ?(duration = Des.Time.sec 12)
    ?(inject_at = Des.Time.sec 4) () =
  let cases =
    List.concat_map
      (fun policy -> List.map (fun n_lbs -> (policy, n_lbs)) lb_counts)
      policies
  in
  Parallel.map ?jobs
    (fun (coord, n_lbs) ->
      herd_one ~coord ?law ?remap ~n_lbs ~duration ~inject_at ())
    cases

(* A8: every law at every fleet size, uncoordinated — the paper's
   shift-worst as baseline — plus the gradient law under gossip, the
   composition arXiv 2504.10693 suggests (each LB descends on the merged
   fleet estimates; fleet-epoch hysteresis bounds churn). *)
let law_sweep ?jobs ?(laws = Inband.Control_law.all) ?(lb_counts = [ 1; 2; 4 ])
    ?(duration = Des.Time.sec 12) ?(inject_at = Des.Time.sec 4) () =
  let cases =
    List.concat_map
      (fun law ->
        List.map
          (fun n_lbs -> (law, Coordination.Uncoordinated, n_lbs))
          lb_counts)
      laws
    @
    if List.mem Inband.Control_law.Gradient laws then
      List.map
        (fun n_lbs ->
          (Inband.Control_law.Gradient, Coordination.Gossip_average, n_lbs))
        lb_counts
    else []
  in
  Parallel.map ?jobs
    (fun (law, coord, n_lbs) ->
      herd_one ~coord ~law ~n_lbs ~duration ~inject_at ())
    cases

let fleet_headers =
  [
    "coord";
    "LBs";
    "p95 pre";
    "p95 post";
    "actions";
    "per-LB";
    "flips";
    "victim w";
    "converged";
  ]

let fleet_cells r =
  [
    Coordination.policy_to_string r.coord;
    string_of_int r.n_lbs;
    Report.nan_us r.p95_before_us;
    Report.nan_us r.p95_after_us;
    string_of_int r.total_actions;
    String.concat "+" (List.map string_of_int r.per_lb_actions);
    string_of_int r.victim_flips;
    Fmt.str "%.3f" r.victim_weight_mean;
    (if Float.is_nan r.converged_ms then "-"
     else Fmt.str "%.0fms" r.converged_ms);
  ]

let pcc_cell r =
  if r.pcc_checked = 0 then "-"
  else if r.pcc_violations = 0 then "ok"
  else Fmt.str "%d VIOLATIONS" r.pcc_violations

let print_coord rows =
  print_endline
    (Report.section
       "Ablation A7 (extended): LB fleet coordination — uncoordinated vs \
        gossip vs leader");
  print_endline
    (Report.table
       ~headers:(fleet_headers @ [ "msgs"; "suppr"; "imposed"; "pcc" ])
       (List.map
          (fun r ->
            fleet_cells r
            @ [
                string_of_int r.msgs;
                string_of_int r.suppressed;
                string_of_int r.imposed;
                pcc_cell r;
              ])
          rows))

let print_laws rows =
  print_endline
    (Report.section
       "Ablation A8: control-law zoo — shift-worst (paper) vs knapsack vs \
        gradient, across fleet sizes");
  print_endline
    (Report.table
       ~headers:(("law" :: fleet_headers) @ [ "pcc" ])
       (List.map
          (fun r ->
            (Inband.Control_law.to_string r.law :: fleet_cells r)
            @ [ pcc_cell r ])
          rows))

(* --- A7/A8 contracts (the CI coord-smoke and law-smoke gates) ----------- *)

let pcc_clean rows = List.for_all (fun r -> r.pcc_violations = 0) rows

let coord_check rows =
  let max_lbs = List.fold_left (fun m r -> Int.max m r.n_lbs) 0 rows in
  let actions_at policy =
    List.find_map
      (fun r ->
        if r.coord = policy && r.n_lbs = max_lbs then Some r.total_actions
        else None)
      rows
  in
  let halves_churn =
    match actions_at Coordination.Uncoordinated with
    | None -> true
    | Some base ->
        List.for_all
          (fun policy ->
            match actions_at policy with
            | Some a -> 2 * a <= base
            | None -> true)
          Coordination.[ Gossip_average; Leader ]
  in
  Report.failed [ ("pcc", pcc_clean rows); ("churn", halves_churn) ]

(* BENCH_pr6.json's [law_baseline_converged_ms]: shift-worst at 1 LB,
   uncoordinated, when the A8 sweep was first recorded. *)
let law_baseline_converged_ms = 4100.0

let law_check rows =
  let find law coord n_lbs =
    List.find_opt
      (fun r -> r.law = law && r.coord = coord && r.n_lbs = n_lbs)
      rows
  in
  let converges =
    match find Inband.Control_law.Shift_worst Coordination.Uncoordinated 1 with
    | Some r ->
        (not (Float.is_nan r.converged_ms))
        && r.converged_ms <= 1.25 *. law_baseline_converged_ms
    | None -> false
  in
  (* (LBs, shift-worst, gradient, gradient+gossip) at every fleet size
     that ran the first two. *)
  let sizes =
    List.filter_map
      (fun n_lbs ->
        match
          ( find Inband.Control_law.Shift_worst Coordination.Uncoordinated n_lbs,
            find Inband.Control_law.Gradient Coordination.Uncoordinated n_lbs )
        with
        | Some base, Some grad ->
            Some
              ( n_lbs,
                base,
                grad,
                find Inband.Control_law.Gradient Coordination.Gossip_average
                  n_lbs )
        | _ -> None)
      (List.sort_uniq Int.compare (List.map (fun r -> r.n_lbs) rows))
  in
  Report.failed
    [
      ("pcc", pcc_clean rows);
      ("convergence", converges);
      ( "p95",
        List.for_all
          (fun (_, base, grad, _) ->
            grad.p95_after_us <= 1.10 *. base.p95_after_us)
          sizes );
      ( "churn",
        List.for_all
          (fun (n_lbs, _, grad, gossip) ->
            match gossip with
            | Some g when n_lbs > 1 -> g.total_actions < grad.total_actions
            | Some _ | None -> true)
          sizes );
    ]

(* --- A6: far, non-equidistant clients ---------------------------------- *)

type far_row = {
  label : string;
  est_s0_us : float;
  est_s1_us : float;
  p95_us : float;
}

let far_one ~label ~n_clients ~overrides ~duration =
  (* Static Maglev: no controller, so the per-server estimates are pure
     measurement — uncontaminated by starvation feedback. *)
  let scenario =
    {
      Scenario.default_config with
      Scenario.n_clients;
      client_delay_overrides = overrides;
      policy = Inband.Policy.Static_maglev;
    }
  in
  let s = Scenario.build scenario in
  Scenario.run s ~until:duration;
  let balancer = Scenario.balancer s in
  let stats = Inband.Balancer.server_stats balancer in
  let est i =
    match Inband.Server_stats.estimate stats i with
    | Some e -> e /. 1e3
    | None -> nan
  in
  let hist =
    Workload.Latency_log.hist (Scenario.log s) Workload.Latency_log.Get
  in
  {
    label;
    est_s0_us = est 0;
    est_s1_us = est 1;
    p95_us = float_of_int (Stats.Histogram.quantile hist 0.95) /. 1e3;
  }

let far_clients ?jobs ?(duration = Des.Time.sec 10) () =
  Parallel.map ?jobs
    (fun (label, n_clients, overrides) ->
      far_one ~label ~n_clients ~overrides ~duration)
    [
      ("near client only", 1, []);
      ("near + far (1ms away)", 2, [ (1, Des.Time.ms 1) ]);
    ]

let print_far rows =
  print_endline
    (Report.section
       "Ablation A6: far, non-equidistant clients contaminate estimates (§5 Q1)");
  print_endline
    (Report.table
       ~headers:[ "clients"; "est(s0)"; "est(s1)"; "p95 GET" ]
       (List.map
          (fun r ->
            [
              r.label;
              Fmt.str "%.1fus" r.est_s0_us;
              Fmt.str "%.1fus" r.est_s1_us;
              Fmt.str "%.1fus" r.p95_us;
            ])
          rows))


(* --- A9: robust estimation vs the paper's EWMA -------------------------- *)

type estimator_row = {
  label : string;
  actions : int;
  weights : float array;
  mean_us : float;
  p95_get_us : float;
}

let estimator_one ~label ~lb ~duration =
  let config =
    {
      Scenario.default_config with
      Scenario.n_servers = 3;
      policy = Inband.Policy.Latency_aware;
      lb;
    }
  in
  let s = Scenario.build config in
  Scenario.inject_server_delay s ~server:2 ~at:Des.Time.zero
    ~delay:(Des.Time.us 500);
  Scenario.run s ~until:duration;
  let hist =
    Workload.Latency_log.hist (Scenario.log s) Workload.Latency_log.Get
  in
  match Inband.Balancer.controller (Scenario.balancer s) with
  | Some c ->
      {
        label;
        actions = Inband.Controller.action_count c;
        weights = Inband.Controller.weights c;
        mean_us = Stats.Histogram.mean hist /. 1e3;
        p95_get_us = float_of_int (Stats.Histogram.quantile hist 0.95) /. 1e3;
      }
  | None -> assert false

let estimator_comparison ?jobs ?(duration = Des.Time.sec 10) () =
  let d = Inband.Config.default in
  Parallel.map ?jobs
    (fun (label, lb) -> estimator_one ~label ~lb ~duration)
    [
      ("paper: EWMA(0.3), always act", d);
      ("median of 33 samples", { d with Inband.Config.estimate_window = 33 });
      ( "median-33 + threshold + recovery",
        {
          d with
          Inband.Config.estimate_window = 33;
          relative_threshold = 1.3;
          control_interval = Des.Time.ms 5;
          recovery_rate = 0.05;
        } );
    ]

let print_estimator rows =
  print_endline
    (Report.section
       "Ablation A9: robust estimation (3 healthy-ish servers, server 2 \
        +500us from t=0)");
  print_endline
    (Report.table
       ~headers:[ "estimator"; "actions"; "final weights"; "mean GET"; "p95 GET" ]
       (List.map
          (fun r ->
            [
              r.label;
              string_of_int r.actions;
              Fmt.str "[%.2f %.2f %.2f]" r.weights.(0) r.weights.(1)
                r.weights.(2);
              Fmt.str "%.1fus" r.mean_us;
              Fmt.str "%.1fus" r.p95_get_us;
            ])
          rows))


(* --- A10: measurement source -------------------------------------------- *)

type source_row = {
  fault : string;
  ens_samples : int;
  syn_samples : int;
  ens_ratio : float;
  syn_ratio : float;
}

let source_one ~fault ~configure ~duration =
  let inject_at = Des.Time.sec 2 in
  (* Per-flow cliff scope: with one slow and one fast server the per-flow
     RTTs are heterogeneous, and a single LB-wide chosen delta would
     starve the fast flows of samples entirely (§5 Q1). *)
  let scenario =
    configure
      {
        Scenario.default_config with
        Scenario.policy = Inband.Policy.Static_maglev;
        lb =
          {
            Inband.Config.default with
            Inband.Config.cliff_scope = Inband.Config.Per_flow;
          };
      }
  in
  let s = Scenario.build scenario in
  (match fault with
  | "path +1ms" ->
      Scenario.inject_server_delay s ~server:1 ~at:inject_at
        ~delay:(Des.Time.ms 1)
  | _ -> ());
  let balancer = Scenario.balancer s in
  (* Two independent per-server trackers fed only with post-fault
     samples, one per measurement source. *)
  let ens_stats = Inband.Server_stats.create ~n:2 ~ewma_alpha:0.1 () in
  let syn_stats = Inband.Server_stats.create ~n:2 ~ewma_alpha:0.3 () in
  let ens_count = ref 0 and syn_count = ref 0 in
  ignore
  @@ Telemetry.Bus.subscribe (Inband.Balancer.sample_bus balancer)
       (fun (ev : Inband.Balancer.sample_event) ->
         if ev.at >= inject_at then begin
           incr ens_count;
           Inband.Server_stats.record ens_stats ~server:ev.server
             ~sample:ev.sample ~at:ev.at
         end);
  let syn_flows = Netsim.Flow_key.Table.create 256 in
  ignore
  @@ Telemetry.Bus.subscribe (Inband.Balancer.routed_bus balancer)
       (fun (ev : Inband.Balancer.routed_event) ->
         let est =
           match Netsim.Flow_key.Table.find_opt syn_flows ev.flow with
           | Some est -> est
           | None ->
               let est = Inband.Syn_rtt.create () in
               Netsim.Flow_key.Table.add syn_flows ev.flow est;
               est
         in
         match
           Inband.Syn_rtt.on_packet est ~now:ev.at
             ~syn:ev.packet.Netsim.Packet.flags.syn
         with
         | Some sample when ev.at >= inject_at ->
             incr syn_count;
             Inband.Server_stats.record syn_stats ~server:ev.server ~sample
               ~at:ev.at
         | Some _ | None -> ());
  Scenario.run s ~until:duration;
  let ratio stats =
    match
      ( Inband.Server_stats.estimate stats 1,
        Inband.Server_stats.estimate stats 0 )
    with
    | Some victim, Some other when other > 0.0 -> victim /. other
    | Some _, Some _ | Some _, None | None, _ -> nan
  in
  {
    fault;
    ens_samples = !ens_count;
    syn_samples = !syn_count;
    ens_ratio = ratio ens_stats;
    syn_ratio = ratio syn_stats;
  }

let source_comparison ?jobs ?(duration = Des.Time.sec 6) () =
  Parallel.map ?jobs
    (fun (fault, configure) -> source_one ~fault ~configure ~duration)
    [
      ("path +1ms", fun c -> c);
      ( "slow service (+1ms)",
        fun c ->
        {
          c with
          Scenario.server_overrides =
            [
              ( 1,
                {
                  Memcache.Server.default_config with
                  Memcache.Server.service_get =
                    Stats.Dist.Shifted
                      {
                        base = Memcache.Server.default_config.Memcache.Server.service_get;
                        offset = 1.0e6;
                      };
                  service_set =
                    Stats.Dist.Shifted
                      {
                        base = Memcache.Server.default_config.Memcache.Server.service_set;
                        offset = 1.0e6;
                      };
                } );
            ];
        } );
      ( "fast stalls (1-1.5ms)",
        fun c ->
          {
            c with
            Scenario.interference =
              [
                ( 1,
                  Stats.Dist.Exponential { mean = 2.0e6 },
                  Stats.Dist.Uniform { lo = 0.5e6; hi = 1.5e6 } );
              ];
          } );
    ]

let print_source rows =
  print_endline
    (Report.section
       "Ablation A10: measurement source — full in-band vs handshake-only");
  print_endline
    (Report.table
       ~headers:
         [
           "fault on server 1";
           "ensemble samples";
           "syn samples";
           "ens victim/other";
           "syn victim/other";
         ]
       (List.map
          (fun r ->
            [
              r.fault;
              string_of_int r.ens_samples;
              string_of_int r.syn_samples;
              Fmt.str "%.2fx" r.ens_ratio;
              Fmt.str "%.2fx" r.syn_ratio;
            ])
          rows))
