type row = {
  label : string;
  p95_before_us : float;
  p95_after_us : float;
  actions_before : int;
  actions_after : int;
  victim_weight : float;
  est_us : float array;
  samples : int array;
}

(* IP plan: VIP 1; frontends 10, 11; backends 20 (and 21); client 100. *)
let vip_ip = 1
let frontend_ip i = 10 + i
let backend_ip i = 20 + i
let client_ip = 100
let backend_port = 11311

type wiring = Private_backends | Shared_backend

let label_of = function
  | Private_backends -> "private backends (shift helps)"
  | Shared_backend -> "shared backend (shift cannot help)"

let run_one ~wiring ~duration ~inject_at =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let rng = Des.Rng.create ~seed:0xdeb in
  let vip = Netsim.Addr.v vip_ip 11211 in
  let lb_config =
    (* Stabilised controller (see DESIGN.md §5) so the private-backend
       case converges; the comparison isolates the attribution problem,
       not controller hunting. *)
    {
      Inband.Config.default with
      Inband.Config.relative_threshold = 1.5;
      ewma_alpha = 0.05;
      control_interval = Des.Time.ms 5;
      recovery_rate = 0.05;
    }
  in
  let balancer =
    Inband.Balancer.create fabric ~vip
      ~server_ips:[| frontend_ip 0; frontend_ip 1 |]
      ~policy:Inband.Policy.Latency_aware ~config:lb_config ~table_size:1021 ()
  in
  (* Backends: plain memcached servers on their own addresses. *)
  let n_backends = match wiring with Private_backends -> 2 | Shared_backend -> 1 in
  let backends =
    Array.init n_backends (fun i ->
        Memcache.Server.create fabric ~host_ip:(backend_ip i)
          ~listen_addr:(Netsim.Addr.v (backend_ip i) backend_port)
          ~rng:(Des.Rng.split rng ~label:(Fmt.str "backend-%d" i))
          ())
  in
  let key_count = 5_000 in
  let names =
    Workload.Keyspace.create ~count:key_count ~dist:Workload.Keyspace.Uniform
      ~rng:(Des.Rng.split rng ~label:"names") ()
  in
  Array.iter
    (fun backend ->
      Memcache.Store.preload
        (Memcache.Server.store backend)
        ~count:key_count
        ~key_of:(Workload.Keyspace.key_of names)
        ~value_size:64)
    backends;
  (* Frontends: memcached servers with ~20 us of their own compute, each
     forwarding every request to its backend. *)
  let backend_of_frontend i =
    match wiring with Private_backends -> i | Shared_backend -> 0
  in
  let own_service = Stats.Dist.Lognormal { mu = log 20_000.0; sigma = 0.25 } in
  let frontend_config =
    {
      Memcache.Server.default_config with
      Memcache.Server.service_get = own_service;
      service_set = own_service;
    }
  in
  for i = 0 to 1 do
    ignore
      (Memcache.Server.create fabric ~host_ip:(frontend_ip i) ~listen_addr:vip
         ~config:frontend_config
         ~upstream:
           (Netsim.Addr.v (backend_ip (backend_of_frontend i)) backend_port)
         ~rng:(Des.Rng.split rng ~label:(Fmt.str "frontend-%d" i))
         ())
  done;
  (* The memtier client. *)
  let log = Workload.Latency_log.create engine ~bucket:(Des.Time.ms 500) () in
  let keyspace =
    Workload.Keyspace.create ~count:key_count ~dist:Workload.Keyspace.Uniform
      ~rng:(Des.Rng.split rng ~label:"keys") ()
  in
  let client =
    Workload.Memtier.create fabric ~host_ip:client_ip ~vip ~keyspace ~log
      ~config:
        { Workload.Memtier.default_config with Workload.Memtier.connections = 2 }
      ~rng:(Des.Rng.split rng ~label:"client")
      ()
  in
  (* Links. *)
  let plain delay = Netsim.Link.create engine ~delay () in
  let jittered delay label =
    Netsim.Link.create engine ~delay
      ~jitter:(Stats.Dist.Exponential { mean = 10_000.0 })
      ~rng:(Des.Rng.split rng ~label) ()
  in
  Netsim.Fabric.add_link fabric ~src:client_ip ~dst:vip_ip
    (plain (Des.Time.us 30));
  for i = 0 to 1 do
    Netsim.Fabric.add_link fabric ~src:vip_ip ~dst:(frontend_ip i)
      (plain (Des.Time.us 25));
    Netsim.Fabric.add_link fabric ~src:(frontend_ip i) ~dst:client_ip
      (jittered (Des.Time.us 55) (Fmt.str "ret-%d" i))
  done;
  (* Frontend <-> backend meshes (only the pairs in use). *)
  let fe_be_links = Hashtbl.create 4 in
  for i = 0 to 1 do
    let b = backend_of_frontend i in
    if not (Hashtbl.mem fe_be_links (i, b)) then begin
      let link = plain (Des.Time.us 20) in
      Netsim.Fabric.add_link fabric ~src:(frontend_ip i) ~dst:(backend_ip b)
        link;
      Netsim.Fabric.add_link fabric ~src:(backend_ip b) ~dst:(frontend_ip i)
        (plain (Des.Time.us 20));
      Hashtbl.add fe_be_links (i, b) link
    end
  done;
  (* Inject +1 ms on the dependency path of interest: frontend 1's
     backend (private) or the shared backend's paths (shared). *)
  ignore
    (Des.Engine.schedule engine ~at:inject_at (fun () ->
         Hashtbl.iter
           (fun (fe, _) link ->
             let affected =
               match wiring with
               | Private_backends -> fe = 1
               | Shared_backend -> true
             in
             if affected then Netsim.Link.set_extra_delay link (Des.Time.ms 1))
           fe_be_links));
  Workload.Memtier.start client;
  Des.Engine.run ~until:duration engine;
  Workload.Memtier.stop client;
  (* Metrics. *)
  let rows = Workload.Latency_log.series log ~op:Workload.Latency_log.Get ~q:0.95 in
  let p95_in lo hi = Samples.windowed_quantile_us rows ~lo ~hi in
  let actions_before, actions_after, victim_weight =
    match Inband.Balancer.controller balancer with
    | Some c ->
        let before, after =
          List.partition
            (fun a -> a.Inband.Controller.at < inject_at)
            (Inband.Controller.actions c)
        in
        (List.length before, List.length after, (Inband.Controller.weights c).(1))
    | None -> (0, 0, nan)
  in
  let stats = Inband.Balancer.server_stats balancer in
  {
    label = label_of wiring;
    p95_before_us = p95_in (Des.Time.sec 1) inject_at;
    p95_after_us = p95_in (inject_at + Des.Time.sec 1) duration;
    actions_before;
    actions_after;
    victim_weight;
    est_us =
      Array.init 2 (fun i ->
          match Inband.Server_stats.estimate stats i with
          | Some e -> e /. 1e3
          | None -> nan);
    samples = Array.init 2 (fun i -> Inband.Server_stats.sample_count stats i);
  }

let run_cases ?jobs ?(duration = Des.Time.sec 10) ?(inject_at = Des.Time.sec 4)
    () =
  Parallel.map ?jobs
    (fun wiring -> run_one ~wiring ~duration ~inject_at)
    [ Private_backends; Shared_backend ]

let print rows =
  print_endline
    (Report.section
       "Ablation A11: slowness in a downstream dependency (§5 Q3)");
  print_endline
    (Report.table
       ~headers:
         [
           "wiring";
           "p95 pre";
           "p95 post";
           "actions pre/post";
           "frontend-1 weight";
           "est f0/f1";
           "samples f0/f1";
         ]
       (List.map
          (fun r ->
            [
              r.label;
              Report.nan_us r.p95_before_us;
              Report.nan_us r.p95_after_us;
              Fmt.str "%d / %d" r.actions_before r.actions_after;
              Fmt.str "%.3f" r.victim_weight;
              Fmt.str "%.0f / %.0f" r.est_us.(0) r.est_us.(1);
              Fmt.str "%d / %d" r.samples.(0) r.samples.(1);
            ])
          rows))
