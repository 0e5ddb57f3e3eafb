(* Sharded flow-scale churn workload (DESIGN.md §14).

   The single-engine flow-churn scenario, partitioned across K
   shards: client c lives on shard [c mod K], server s on [s mod K], and
   every shard runs a full balancer replica behind its own copy of the
   VIP. Replicas are configured identically — same server names, same
   table size — so their Maglev tables are identical and any replica
   routes a given flow key to the same server: sharding the *clients*
   never changes a flow's backend. All links carry the same 5 µs
   propagation delay, which is therefore the cross-shard lookahead.
   Cross-shard hops (LB→server and server→client DSR legs whose
   endpoints live on different shards) go through remote links that
   preserve the exact arrival timestamp, so per-flow packet timing — and
   everything derived from it: responses, FIN-driven reincarnation, idle
   expiry — is invariant in K. The [csv] summary contains only such
   K-invariant quantities; byte-equality of shards=1 vs shards=K output
   is asserted by tests and the CI shard-smoke tripwire.

   At K=1 the construction sequence below performs exactly the calls of
   the historical single-engine bench (one balancer, same registration
   and link order, same pacer schedule), so `--shards 1` behavior is
   byte-identical to the pre-sharding engine.

   The pacer is the one piece that cannot simply be replicated: the
   original walks a global round-robin cursor, 64 sends per 1 µs tick.
   Send j of the global schedule targets flow [j mod n] at tick
   [j / 64], and the flow's per-incarnation counters are closed-form in
   the round number r = j / n (k = r mod 8, generation = r / 8). Each
   shard's pacer walks the same global send indices and emits only the
   sends whose client it owns, at the identical simulation time — the
   global send schedule is reproduced exactly, just demultiplexed. *)

let clients = 64
let servers = 8
let packets_per_incarnation = 8 (* the 8th carries FIN *)
let rounds = 12 (* sends per flow over the whole run *)
let batch = 64 (* sends per pacer tick *)

type result = {
  n : int;
  shards : int;
  events : int; (* aggregate events fired across all shards *)
  responses : int;
  active_peak : int;
  wall_s : float;
  events_per_sec : float;
  words_per_flow : float;
  full_major_s : float;
  csv : string; (* K-invariant summary; byte-identical for any shards *)
  drain_windows : int; (* windows spent in the idle-expiry drain phase *)
  stats : Des.Shard.stats;
}

(* More shards than clients would leave empty engines spinning in the
   barrier for nothing. *)
let resolve_shards shards =
  if shards > 0 then shards
  else Stdlib.min clients (Domain.recommended_domain_count ())

(* One balancer replica + its shard's clients and servers, plus every
   link whose *source* host lives on this shard (a link is owned by the
   sending engine; its receiving end may be remote). *)
let flows ?(shards = 1) ?(seed = 0) ?(adaptive = true) ~n () =
  if shards < 1 then invalid_arg "Sharded.flows: shards must be >= 1";
  if n < 1 then invalid_arg "Sharded.flows: n must be >= 1";
  if seed < 0 then invalid_arg "Sharded.flows: seed must be >= 0";
  Gc.compact ();
  let base_live = (Gc.stat ()).Gc.live_words in
  let lookahead = Des.Time.us 5 in
  let shard = Des.Shard.create ~adaptive ~shards ~lookahead () in
  let vip = Netsim.Addr.v 1 80 in
  let server_ips = Array.init servers (fun i -> 10 + i) in
  let client_ips = Array.init clients (fun i -> 100 + i) in
  let shard_of_client c = c mod shards in
  let shard_of_server s = s mod shards in
  let fabrics =
    Array.init shards (fun k -> Netsim.Fabric.create (Des.Shard.engine shard k))
  in
  (* Tagged cross-shard delivery: the packet rides the flat inbox as
     (tag = destination ip, payload = packet) — no closure per post. *)
  Array.iteri
    (fun k fab ->
      Des.Shard.set_sink shard ~dst:k (fun ip payload ->
          Netsim.Fabric.deliver fab ~ip (Obj.obj payload : Netsim.Packet.t)))
    fabrics;
  let config =
    {
      Inband.Config.default with
      Inband.Config.flow_idle_timeout = Des.Time.ms 32;
      sweep_interval = Des.Time.ms 16;
    }
  in
  let balancers =
    Array.init shards (fun k ->
        Inband.Balancer.create fabrics.(k) ~vip ~server_ips ~config ())
  in
  (* Per-client counters, written only by the owning shard's domain. *)
  let responses = Array.make clients 0 in
  let sends_by_client = Array.make clients 0 in
  Array.iteri
    (fun c ip ->
      Netsim.Fabric.register fabrics.(shard_of_client c) ~ip (fun _ ->
          responses.(c) <- responses.(c) + 1))
    client_ips;
  Array.iteri
    (fun s ip ->
      let fab = fabrics.(shard_of_server s) in
      Netsim.Fabric.register fab ~ip (fun pkt ->
          (* Respond to data; FINs are end-of-flow, nothing to say. *)
          if not pkt.Netsim.Packet.flags.Netsim.Packet.fin then
            Netsim.Fabric.send fab ~from:ip
              (Netsim.Packet.make ~src:vip ~dst:pkt.Netsim.Packet.src
                 ~seq:pkt.Netsim.Packet.ack ~ack:pkt.Netsim.Packet.seq
                 ~flags:Netsim.Packet.flag_ack ~payload:"")))
    server_ips;
  let link k = Netsim.Link.create (Des.Shard.engine shard k) ~delay:lookahead ~rate_bps:0 () in
  (* A remote link's receiving end hands the packet to the owning
     shard's engine at its arrival time; delivery re-enters the fabric
     of the destination shard. *)
  let wire fab ~src_shard ~dst_shard ~src ~dst =
    if src_shard = dst_shard then
      Netsim.Fabric.add_link fab ~src ~dst (link src_shard)
    else
      Netsim.Fabric.add_remote_link fab ~src ~dst
        ~remote:(fun ~at pkt ->
          Des.Shard.post_remote_tagged shard ~src:src_shard ~dst:dst_shard
            ~at ~tag:dst (Obj.repr pkt))
        (link src_shard)
  in
  (* client→VIP: always shard-local (each shard fronts its clients with
     its own replica). *)
  Array.iteri
    (fun c cip ->
      let k = shard_of_client c in
      Netsim.Fabric.add_link fabrics.(k) ~src:cip ~dst:vip.Netsim.Addr.ip
        (link k))
    client_ips;
  (* VIP→server: every replica must reach every server (Maglev may pick
     any backend for a local client's flow). server→client: DSR reply
     legs, owned by the server's shard. *)
  Array.iteri
    (fun s sip ->
      let ks = shard_of_server s in
      for k = 0 to shards - 1 do
        wire fabrics.(k) ~src_shard:k ~dst_shard:ks ~src:vip.Netsim.Addr.ip
          ~dst:sip
      done;
      Array.iteri
        (fun c cip ->
          wire fabrics.(ks) ~src_shard:ks ~dst_shard:(shard_of_client c)
            ~src:sip ~dst:cip)
        client_ips)
    server_ips;
  (* Per-shard pacer: demultiplex the global send schedule (see header
     comment). Flow i lives on client [(i + seed) land 63]; its source
     port encodes the flow index and incarnation (offset by the seed, so
     distinct seeds route through distinct Maglev entries), making every
     incarnation a fresh key. Both seed transforms happen before
     sharding, so they perturb the simulation, not its K-invariance. *)
  let stride = (n + clients - 1) / clients in
  let port_base = seed land 0xffff in
  let total_sends = rounds * n in
  for k = 0 to shards - 1 do
    let engine = Des.Shard.engine shard k in
    let fab = fabrics.(k) in
    let tick = ref 0 in
    let rec pacer () =
      let m = !tick in
      incr tick;
      let j_end = Int.min ((m + 1) * batch) total_sends in
      for j = m * batch to j_end - 1 do
        let i = j mod n in
        let c = (i + seed) land (clients - 1) in
        if shard_of_client c = k then begin
          let cip = client_ips.(c) in
          let r = j / n in
          let kth = r mod packets_per_incarnation in
          let gen = r / packets_per_incarnation in
          let port = port_base + (i lsr 6) + (gen * stride) in
          let fin = kth = packets_per_incarnation - 1 in
          Netsim.Fabric.send fab ~from:cip
            (Netsim.Packet.make
               ~src:(Netsim.Addr.v cip port)
               ~dst:vip ~seq:kth ~ack:0
               ~flags:
                 (if fin then Netsim.Packet.flag_fin_ack
                  else Netsim.Packet.flag_ack)
               ~payload:"");
          sends_by_client.(c) <- sends_by_client.(c) + 1
        end
      done;
      if j_end < total_sends then
        Des.Engine.post_call engine
          ~at:(Des.Engine.now engine + Des.Time.us 1)
          pacer ()
    in
    Des.Engine.post_call engine ~at:(Des.Engine.now engine + Des.Time.us 1)
      pacer ()
  done;
  let t0 = Unix.gettimeofday () in
  (* Phase 1: drive all sends plus in-flight drain, then measure live
     memory at peak concurrency under a forced full major. All engines
     sit at exactly [send_horizon] here, so cross-replica sums are
     barrier-aligned snapshots. *)
  let send_horizon =
    Des.Time.us ((total_sends / batch) + 2) + Des.Time.ms 1
  in
  Des.Shard.run shard ~until:send_horizon;
  let windows_at_horizon = (Des.Shard.stats shard).Des.Shard.windows in
  let active_peak =
    Array.fold_left
      (fun acc b -> acc + Inband.Balancer.active_flows b)
      0 balancers
  in
  let fm0 = Unix.gettimeofday () in
  Gc.full_major ();
  let full_major_s = Unix.gettimeofday () -. fm0 in
  let live_at_peak = (Gc.stat ()).Gc.live_words in
  (* Phase 2: silence the traffic and let idle expiry reap the tables —
     the balancers' periodic sweeps must walk every flow out, on every
     shard. *)
  Des.Shard.run shard ~until:(send_horizon + Des.Time.ms 200);
  let wall_s = Unix.gettimeofday () -. t0 -. full_major_s in
  let active_end =
    Array.fold_left
      (fun acc b -> acc + Inband.Balancer.active_flows b)
      0 balancers
  in
  let stats = Des.Shard.stats shard in
  Des.Shard.shutdown shard;
  if active_end <> 0 then
    failwith
      (Fmt.str "Sharded.flows: %d flows survived idle expiry" active_end);
  let events =
    Array.fold_left ( + ) 0 stats.Des.Shard.events_fired
  in
  let total_responses = Array.fold_left ( + ) 0 responses in
  let csv =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "client_ip,sends,responses\n";
    Array.iteri
      (fun c ip ->
        Buffer.add_string buf
          (Fmt.str "%d,%d,%d\n" ip sends_by_client.(c) responses.(c)))
      client_ips;
    Buffer.add_string buf
      (Fmt.str "total,%d,%d\n" total_sends total_responses);
    Buffer.add_string buf (Fmt.str "active_at_horizon,%d\n" active_peak);
    Buffer.add_string buf (Fmt.str "active_end,%d\n" active_end);
    Buffer.contents buf
  in
  {
    n;
    shards;
    events;
    responses = total_responses;
    active_peak;
    wall_s;
    events_per_sec = float_of_int events /. wall_s;
    words_per_flow =
      float_of_int (live_at_peak - base_live) /. float_of_int n;
    full_major_s;
    csv;
    drain_windows = stats.Des.Shard.windows - windows_at_horizon;
    stats;
  }

(* The single-engine rate is BENCH_pr4.json's
   [flows_baseline_events_per_sec], judged against since that file was
   written. The live words per flow is BENCH_pr23.json's
   [flows_words_per_flow_k1_after] (n = 65536, 1 shard), recorded once
   the flow table kept its keys inline: at 1.5x it still admits the
   2-shard run's 13.5, and no longer the boxed keys' 29.7. *)
let baseline_events_per_sec = 2_284_397.439
let baseline_words_per_flow = 13.232

let check ~cores ?one_shard ?fixed r =
  let same_csv other =
    match other with Some o -> String.equal o.csv r.csv | None -> true
  in
  let sequential = Option.value one_shard ~default:r in
  Report.failed
    [
      ("rate", sequential.events_per_sec >= 0.5 *. baseline_events_per_sec);
      ("words", r.words_per_flow <= 1.5 *. baseline_words_per_flow);
      ("determinism", same_csv one_shard);
      ("adaptive-determinism", same_csv fixed);
      ( "adaptive-windows",
        match fixed with
        | Some f -> 3 * r.drain_windows <= f.drain_windows
        | None -> true );
      ( "parallel-rate",
        one_shard = None || cores < r.shards
        || r.events_per_sec >= 2.0 *. baseline_events_per_sec );
    ]
