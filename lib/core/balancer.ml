(* Per-flow state is split across the ensemble slab and the balancer's
   own parallel arrays, both indexed by the flow's slab slot: the
   open-addressed {!Netsim.Flow_table} maps a key to its slot (keeping
   the key inline, not as a record), and [fl_server]/[fl_last_seen]/
   [fl_live] hold what used to live in a boxed per-flow record. The
   balancer therefore holds no heap block per flow, establishing a flow
   after warm-up allocates nothing, and a packet's state is three
   flat-array reads.

   Idle tracking is bucketed by coarse time so the periodic sweep only
   visits flows whose bucket could have expired, instead of rescanning
   every live flow each interval. A flow lives in exactly one bucket:
   it is filed under its creation time and re-filed (under its current
   [last_seen]) only when a sweep visits it, so per-packet cost stays a
   single field write and each flow is re-examined at most once per
   idle-timeout's worth of sweeps. A bucket is an intrusive chain of
   slots through the [fl_next] lane, most recently filed first, and
   [Buckets] maps the bucket index to the chain's head. The sweep
   removes an expired flow by its slot: [fl_hash] holds the key's hash,
   which is all {!Netsim.Flow_table.remove_value} needs to find its
   bucket, so the sweep neither builds a key nor looks the flow up. *)

(* Slot lanes are Bigarrays for the same reason the ensemble slab is:
   the per-flow integers live off the OCaml heap, invisible to the GC,
   so a sharded run's per-shard balancers add no cross-domain marking
   work however many flows they hold. *)
type lane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let lane_make n : lane =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let lane_empty : lane = lane_make 0

(* Bucket index -> the slot heading its chain. [Int.equal] keys, not
   the generic table's [compare_val]; the hash (and so every bucket) is
   the same. *)
module Buckets = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type idle_buckets = {
  width : Des.Time.t; (* bucket granularity = sweep interval *)
  heads : int Buckets.t;
  mutable cursor : int; (* all buckets below this index are empty *)
}

type sample_event = {
  at : Des.Time.t;
  flow : Netsim.Flow_key.t;
  server : int;
  sample : Des.Time.t;
}

type routed_event = {
  at : Des.Time.t;
  flow : Netsim.Flow_key.t;
  server : int;
  packet : Netsim.Packet.t;
}

type remap_event = {
  at : Des.Time.t;
  flow : Netsim.Flow_key.t;
  from_server : int;
  to_server : int;
}

type t = {
  fabric : Netsim.Fabric.t;
  engine : Des.Engine.t;
  vip : Netsim.Addr.t;
  server_ips : int array;
  policy : Policy.t;
  config : Config.t;
  pool : Maglev.Pool.t;
  controller : Controller.t option;
  stats : Server_stats.t; (* the controller's, or the balancer's own *)
  ensemble : Ensemble.t;
  flows : Netsim.Flow_table.t; (* key -> slab slot *)
  (* Slot-indexed flow state, grown in step with the ensemble slab. *)
  mutable fl_server : lane;
  mutable fl_last_seen : lane;
  mutable fl_pkts : lane; (* packets this incarnation: hot_k's rate proxy *)
  mutable fl_hash : lane; (* the key's Flow_key.hash *)
  mutable fl_next : lane; (* next slot on the idle chain, -1 at its end *)
  mutable fl_live : Bytes.t; (* '\001' = counted in conn_gauge *)
  idle : idle_buckets;
  conn_gauge : int array;
  rng : Des.Rng.t;
  mutable rr_next : int;
  packet_bus : Netsim.Packet.t Telemetry.Bus.t;
  sample_bus : sample_event Telemetry.Bus.t;
  routed_bus : routed_event Telemetry.Bus.t;
  remap_bus : remap_event Telemetry.Bus.t;
  m_remapped : Telemetry.Registry.counter;
  m_forwarded : Telemetry.Registry.counter;
  m_pkts_to : Telemetry.Registry.counter array;
  m_flows_to : Telemetry.Registry.counter array;
  m_samples : Telemetry.Registry.counter;
  m_samples_to : Telemetry.Registry.counter array;
}

let select t key =
  match t.policy with
  | Policy.Static_maglev | Policy.Latency_aware ->
      Maglev.Pool.lookup t.pool (Netsim.Flow_key.hash key)
  | Policy.Round_robin ->
      let i = t.rr_next in
      t.rr_next <- (t.rr_next + 1) mod Array.length t.server_ips;
      i
  | Policy.Least_conn ->
      let best = ref 0 in
      Array.iteri
        (fun i c -> if c < t.conn_gauge.(!best) then best := i)
        t.conn_gauge;
      !best
  | Policy.P2c ->
      let n = Array.length t.server_ips in
      let a = Des.Rng.int t.rng n and b = Des.Rng.int t.rng n in
      if t.conn_gauge.(a) <= t.conn_gauge.(b) then a else b

let release t slot =
  if Bytes.get t.fl_live slot = '\001' then begin
    Bytes.set t.fl_live slot '\000';
    let server = Bigarray.Array1.get t.fl_server slot in
    t.conn_gauge.(server) <- t.conn_gauge.(server) - 1
  end

let bucket_of idle at = at / idle.width

(* Push [slot] on the front of [bucket]'s chain. *)
let file_flow t ~bucket slot =
  let heads = t.idle.heads in
  Bigarray.Array1.unsafe_set t.fl_next slot
    (match Buckets.find heads bucket with
    | head -> head
    | exception Not_found -> -1);
  Buckets.replace heads bucket slot

(* Visit a chain detached from bucket [b], front to back: expire each
   flow idle past the timeout and re-file the rest. The next link is
   read before [slot] is re-filed, which overwrites it. *)
let rec sweep_chain t ~now ~b slot =
  if slot >= 0 then begin
    let next = Bigarray.Array1.unsafe_get t.fl_next slot in
    let last_seen = Bigarray.Array1.unsafe_get t.fl_last_seen slot in
    if now - last_seen > t.config.Config.flow_idle_timeout then begin
      release t slot;
      Netsim.Flow_table.remove_value t.flows
        ~hash:(Bigarray.Array1.unsafe_get t.fl_hash slot)
        slot;
      Ensemble.release_flow t.ensemble slot
    end
    else file_flow t ~bucket:(Int.max b (bucket_of t.idle last_seen)) slot;
    sweep_chain t ~now ~b next
  end

(* Sweep cost is proportional to the flows filed in buckets at or below
   the expiry horizon — i.e. to expirations plus the boundary bucket —
   not to the live flow count. Expiry times are identical to the old
   full-table scan: a flow is removed at the first sweep with
   [now - last_seen > flow_idle_timeout]. *)
let sweep t =
  let now = Des.Engine.now t.engine in
  let idle = t.idle in
  let horizon = now - t.config.Config.flow_idle_timeout in
  if horizon >= 0 then begin
    (* Buckets strictly below [boundary] can only hold expired flows;
       the boundary bucket itself straddles the horizon and is rescanned
       until it fully expires. *)
    let boundary = bucket_of idle horizon in
    for b = idle.cursor to boundary do
      match Buckets.find idle.heads b with
      | exception Not_found -> ()
      | head ->
          Buckets.remove idle.heads b;
          sweep_chain t ~now ~b head
    done;
    idle.cursor <- Int.max idle.cursor boundary
  end

let ensure_slot_capacity t slot =
  if slot >= Bigarray.Array1.dim t.fl_server then begin
    let n = Stdlib.max 64 (Bigarray.Array1.dim t.fl_server) in
    let n = if slot >= 2 * n then slot + 1 else 2 * n in
    let grow (arr : lane) =
      let narr = lane_make n in
      let old = Bigarray.Array1.dim arr in
      if old > 0 then Bigarray.Array1.blit arr (Bigarray.Array1.sub narr 0 old);
      Bigarray.Array1.fill (Bigarray.Array1.sub narr old (n - old)) 0;
      narr
    in
    t.fl_server <- grow t.fl_server;
    t.fl_last_seen <- grow t.fl_last_seen;
    t.fl_pkts <- grow t.fl_pkts;
    t.fl_hash <- grow t.fl_hash;
    t.fl_next <- grow t.fl_next;
    let nlive = Bytes.make n '\000' in
    Bytes.blit t.fl_live 0 nlive 0 (Bytes.length t.fl_live);
    t.fl_live <- nlive
  end

let flow_slot t key ~now =
  let slot = Netsim.Flow_table.find t.flows key in
  if slot >= 0 then slot
  else begin
    let server = select t key in
    let slot = Ensemble.create_flow t.ensemble ~now in
    ensure_slot_capacity t slot;
    Bigarray.Array1.set t.fl_server slot server;
    Bigarray.Array1.set t.fl_last_seen slot now;
    Bigarray.Array1.set t.fl_pkts slot 0;
    Bytes.set t.fl_live slot '\001';
    Netsim.Flow_table.add t.flows key slot;
    Bigarray.Array1.set t.fl_hash slot (Netsim.Flow_key.hash key);
    file_flow t ~bucket:(bucket_of t.idle now) slot;
    t.conn_gauge.(server) <- t.conn_gauge.(server) + 1;
    Telemetry.Registry.Counter.incr t.m_flows_to.(server);
    slot
  end

(* --- Remap: what a table rebuild does to established flows ---------

   Under [Remap.Preserve] (the default and the paper's behaviour) none
   of this runs: the rebuild hook is only installed for the other
   policies, so the preserve path stays byte-identical. *)

(* Re-consult the weighted table for one flow, probing successive table
   positions from the flow's own hash past any backend a migration must
   not land on: drained servers always (their slots survive at the
   weight floor), plus hot_k's explicit victim. Deterministic and
   distribution-faithful; if every backend is excluded the flow keeps
   its current server. *)
let repick t ~drained ?(avoid = -1) key ~current =
  let h = Netsim.Flow_key.hash key in
  let limit = Maglev.Pool.table_size t.pool in
  let rec probe i =
    if i >= limit then current
    else
      let s = Maglev.Pool.lookup t.pool (h + i) in
      if s <> avoid && not (drained s) then s else probe (i + 1)
  in
  probe 0

let migrate t ~now key slot ~target =
  let current = Bigarray.Array1.get t.fl_server slot in
  if target <> current then begin
    Bigarray.Array1.set t.fl_server slot target;
    (* Only live flows are ever migrated, so the gauge swap is safe. *)
    t.conn_gauge.(current) <- t.conn_gauge.(current) - 1;
    t.conn_gauge.(target) <- t.conn_gauge.(target) + 1;
    Telemetry.Registry.Counter.incr t.m_remapped;
    if not (Telemetry.Bus.is_empty t.remap_bus) then
      Telemetry.Bus.publish t.remap_bus
        { at = now; flow = key; from_server = current; to_server = target }
  end

let apply_remap t ~now ~victim =
  let drained s =
    match t.controller with
    | Some c -> Controller.is_drained c s
    | None -> false
  in
  match t.config.Config.remap with
  | Remap.Preserve -> () (* hook never installed; defensive *)
  | Remap.Immediate | Remap.Ttl _ ->
      (* Every live flow whose idle gap is at least the TTL re-consults
         the fresh table ([Immediate] ≡ TTL 0). *)
      let ttl =
        match t.config.Config.remap with Remap.Ttl n -> n | _ -> 0
      in
      Netsim.Flow_table.iter
        (fun key slot ->
          if
            Bytes.get t.fl_live slot = '\001'
            && now - Bigarray.Array1.get t.fl_last_seen slot >= ttl
          then
            let current = Bigarray.Array1.get t.fl_server slot in
            migrate t ~now key slot
              ~target:(repick t ~drained key ~current))
        t.flows
  | Remap.Hot_k k -> (
      match victim with
      | None -> () (* no single victim: nothing to migrate off *)
      | Some v when k > 0 ->
          (* The K highest-rate live flows pinned to the victim, by the
             per-flow packet-count lane (rate proxy); slot order breaks
             ties so the choice is deterministic. *)
          let cand = ref [] in
          Netsim.Flow_table.iter
            (fun key slot ->
              if
                Bytes.get t.fl_live slot = '\001'
                && Bigarray.Array1.get t.fl_server slot = v
              then
                cand :=
                  (Bigarray.Array1.get t.fl_pkts slot, slot, key) :: !cand)
            t.flows;
          let cand =
            List.sort
              (fun (p1, s1, _) (p2, s2, _) ->
                if p1 <> p2 then compare p2 p1 else compare s1 s2)
              !cand
          in
          let rec migrate_top n = function
            | [] -> ()
            | _ when n = 0 -> ()
            | (_, slot, key) :: rest ->
                migrate t ~now key slot
                  ~target:(repick t ~drained ~avoid:v key ~current:v);
                migrate_top (n - 1) rest
          in
          migrate_top k cand
      | Some _ -> () (* hot_k:0 ≡ preserve *))

let record_sample t ~now ~key ~server sample =
  Telemetry.Registry.Counter.incr t.m_samples;
  Telemetry.Registry.Counter.incr t.m_samples_to.(server);
  (match t.controller with
  | Some controller ->
      ignore (Controller.on_sample controller ~now ~server sample)
  | None -> Server_stats.record t.stats ~server ~sample ~at:now);
  (* Guarded (not [publish_with]) so the event record is not even built
     — and no closure is captured — when nobody listens. *)
  if not (Telemetry.Bus.is_empty t.sample_bus) then
    Telemetry.Bus.publish t.sample_bus { at = now; flow = key; server; sample }

let on_packet t (pkt : Netsim.Packet.t) =
  Telemetry.Bus.publish t.packet_bus pkt;
  let now = Des.Engine.now t.engine in
  let key = Netsim.Packet.flow pkt in
  let slot = flow_slot t key ~now in
  let server = Bigarray.Array1.unsafe_get t.fl_server slot in
  Bigarray.Array1.unsafe_set t.fl_last_seen slot now;
  Bigarray.Array1.unsafe_set t.fl_pkts slot
    (Bigarray.Array1.unsafe_get t.fl_pkts slot + 1);
  (match Ensemble.on_packet t.ensemble slot ~now with
  | Some sample -> record_sample t ~now ~key ~server sample
  | None -> ());
  (* The sample can trigger a rebuild whose remap policy migrates this
     very flow; re-read the assignment so the routed event and the
     forward reflect it. Under [Remap.Preserve] nothing can have moved
     and this is the same value. *)
  let server = Bigarray.Array1.unsafe_get t.fl_server slot in
  if not (Telemetry.Bus.is_empty t.routed_bus) then
    Telemetry.Bus.publish t.routed_bus
      { at = now; flow = key; server; packet = pkt };
  if pkt.flags.fin || pkt.flags.rst then release t slot;
  Telemetry.Registry.Counter.incr t.m_forwarded;
  Telemetry.Registry.Counter.incr t.m_pkts_to.(server);
  Netsim.Fabric.forward t.fabric ~from:t.vip.Netsim.Addr.ip
    ~hop:t.server_ips.(server) pkt

let create fabric ~vip ~server_ips ?(policy = Policy.Static_maglev)
    ?(config = Config.default) ?(table_size = 4099) ?rng ?telemetry () =
  if Array.length server_ips = 0 then
    invalid_arg "Balancer.create: no servers";
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Balancer.create: " ^ msg));
  let engine = Netsim.Fabric.engine fabric in
  let n = Array.length server_ips in
  let names = Array.map (fun ip -> Fmt.str "server-%d" ip) server_ips in
  let pool = Maglev.Pool.create ~table_size ~names () in
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let controller =
    if Policy.uses_controller policy then
      Some (Controller.create ~config ~pool ~telemetry:registry ())
    else None
  in
  let stats =
    match controller with
    | Some c -> Controller.stats c
    | None ->
        Server_stats.create ~n ~ewma_alpha:config.Config.ewma_alpha
          ~window:config.Config.estimate_window ()
  in
  let rng =
    match rng with Some r -> r | None -> Des.Rng.create ~seed:0x1b5eed
  in
  let vec name =
    Array.init n (fun i -> Telemetry.Registry.counter registry ~index:i name)
  in
  let t =
    {
      fabric;
      engine;
      vip;
      server_ips;
      policy;
      config;
      pool;
      controller;
      stats;
      ensemble = Ensemble.create ~config;
      flows = Netsim.Flow_table.create ~initial:1024 ();
      fl_server = lane_empty;
      fl_last_seen = lane_empty;
      fl_pkts = lane_empty;
      fl_hash = lane_empty;
      fl_next = lane_empty;
      fl_live = Bytes.empty;
      idle =
        {
          width = Stdlib.max 1 config.Config.sweep_interval;
          heads = Buckets.create 64;
          cursor = 0;
        };
      conn_gauge = Array.make n 0;
      rng;
      rr_next = 0;
      packet_bus = Telemetry.Bus.create ();
      sample_bus = Telemetry.Bus.create ();
      routed_bus = Telemetry.Bus.create ();
      remap_bus = Telemetry.Bus.create ();
      m_remapped = Telemetry.Registry.counter registry "lb.remapped_flows";
      m_forwarded = Telemetry.Registry.counter registry "lb.pkts_forwarded";
      m_pkts_to = vec "lb.pkts_to";
      m_flows_to = vec "lb.flows_to";
      m_samples = Telemetry.Registry.counter registry "lb.samples";
      m_samples_to = vec "lb.samples_to";
    }
  in
  Telemetry.Registry.gauge_fn registry "lb.active_flows" (fun () ->
      float_of_int (Netsim.Flow_table.length t.flows));
  (* Flow-table health for the soak battery: capacity must plateau once
     the working set stabilises, and tombstones must stay under the
     resize threshold rather than accumulate — churn attacks (RST
     floods, reconnect storms) show up here first. *)
  Telemetry.Registry.gauge_fn registry "lb.flow_capacity" (fun () ->
      float_of_int (Netsim.Flow_table.capacity t.flows));
  Telemetry.Registry.gauge_fn registry "lb.flow_tombstones" (fun () ->
      float_of_int (Netsim.Flow_table.tombstones t.flows));
  Telemetry.Registry.gauge_fn registry "lb.slab_capacity" (fun () ->
      float_of_int (Ensemble.slab_capacity t.ensemble));
  Telemetry.Registry.gauge_fn registry "lb.slab_live" (fun () ->
      float_of_int (Ensemble.live_flows t.ensemble));
  for i = 0 to n - 1 do
    Telemetry.Registry.gauge_fn registry ~index:i "lb.active_conns" (fun () ->
        float_of_int t.conn_gauge.(i))
  done;
  for i = 0 to n - 1 do
    Telemetry.Registry.gauge_fn registry ~index:i "lb.est_latency_ns"
      (fun () ->
        match Server_stats.estimate stats i with
        | Some est -> est
        | None -> Float.nan)
  done;
  (* The rebuild hook only exists for non-preserving remap policies, so
     [Preserve] keeps the pre-remap commit path byte-identical. *)
  (match controller with
  | Some c when config.Config.remap <> Remap.Preserve ->
      Controller.set_on_rebuild c
        (Some (fun ~now ~victim -> apply_remap t ~now ~victim))
  | _ -> ());
  Netsim.Fabric.register fabric ~ip:vip.Netsim.Addr.ip (fun pkt ->
      on_packet t pkt);
  ignore
    (Des.Timer.every engine ~period:config.Config.sweep_interval (fun () ->
         sweep t));
  t

let config t = t.config
let packet_bus t = t.packet_bus
let sample_bus t = t.sample_bus
let routed_bus t = t.routed_bus
let remap_bus t = t.remap_bus
let remapped_flows t = Telemetry.Registry.Counter.value t.m_remapped
let pool t = t.pool
let controller t = t.controller

let server_stats t = t.stats

let ensemble t = t.ensemble
let n_servers t = Array.length t.server_ips

let packets_forwarded t = Telemetry.Registry.Counter.value t.m_forwarded
let packets_to t i = Telemetry.Registry.Counter.value t.m_pkts_to.(i)
let flows_assigned_to t i = Telemetry.Registry.Counter.value t.m_flows_to.(i)
let active_flows t = Netsim.Flow_table.length t.flows
let flow_capacity t = Netsim.Flow_table.capacity t.flows
let flow_tombstones t = Netsim.Flow_table.tombstones t.flows
let active_conns t = Array.copy t.conn_gauge
let samples_produced t = Telemetry.Registry.Counter.value t.m_samples
