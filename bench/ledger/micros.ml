(* Layer micros: the public hot-path functions of every layer, timed
   with Bechamel for both host time and minor words allocated. A micro's
   rig is built only when it runs (one of them spawns a domain, two
   prefill a 2^18-key table) and torn down right after. [per] is the
   number of operations one Bechamel call performs, so results are per
   operation; micros that contain others are reduced to self time in
   [Attribution]. *)

open Bechamel

type rig = { per : float; call : unit -> unit; cleanup : unit -> unit }

type micro = {
  name : string;  (** Metric stem, e.g. ["des.post_fire"]. *)
  unit_us : bool;  (** Report microseconds (slow ops) instead of ns. *)
  setup : unit -> rig;
}

type result = { ns : float; words : float }

let rig ?(per = 1.0) ?(cleanup = ignore) call = { per; call; cleanup }
let def ?(unit_us = false) name setup = { name; unit_us; setup }
let time_metric m = if m.unit_us then m.name ^ "_us" else m.name ^ "_ns"
let words_metric m = m.name ^ "_words"
let names n = Array.init n (fun i -> Fmt.str "server-%d" i)

let noop_packet =
  Netsim.Packet.make ~src:(Netsim.Addr.v 100 10000) ~dst:(Netsim.Addr.v 1 80)
    ~seq:0 ~ack:0 ~flags:Netsim.Packet.flag_ack ~payload:""

(* --- des ---------------------------------------------------------------- *)

let post_fire =
  def "des.post_fire" (fun () ->
      let e = Des.Engine.create () in
      let f () = () in
      rig (fun () ->
          Des.Engine.post e ~at:(Des.Engine.now e) f;
          ignore (Des.Engine.step e)))

(* Re-arming a timer that is already armed 1 ms out: a cancel plus a
   fresh wheel insertion, the TCP RTO / delayed-ACK pattern. *)
let timer_rearm =
  def "des.timer.rearm" (fun () ->
      let t = Des.Timer.create (Des.Engine.create ()) ~f:ignore in
      Des.Timer.arm t ~delay:(Des.Time.ms 1);
      rig (fun () -> Des.Timer.arm t ~delay:(Des.Time.ms 1)))

(* A batch of tagged cross-shard posts from shard 0, then one window
   whose barrier drains them into shard 1, where they fire in the next
   window. *)
let shard_batch = 64

let shard_post_remote =
  def "des.shard.post_remote" (fun () ->
      let lookahead = Des.Time.us 1 in
      let sh = Des.Shard.create ~shards:2 ~lookahead () in
      Des.Shard.set_sink sh ~dst:1 (fun _ _ -> ());
      let e0 = Des.Shard.engine sh 0 in
      let arg = Obj.repr noop_packet in
      rig ~per:(float_of_int shard_batch)
        ~cleanup:(fun () -> Des.Shard.shutdown sh)
        (fun () ->
          let at = Des.Engine.now e0 + lookahead in
          for tag = 0 to shard_batch - 1 do
            Des.Shard.post_remote_tagged sh ~src:0 ~dst:1 ~at ~tag arg
          done;
          Des.Shard.run sh ~until:at))

(* --- netsim ------------------------------------------------------------- *)

let link_delay = Des.Time.us 5

(* Transmission and propagation: two engine events per packet. *)
let link_send =
  def "netsim.link.send" (fun () ->
      let e = Des.Engine.create () in
      let l = Netsim.Link.create e ~delay:link_delay () in
      Netsim.Link.connect l ignore;
      rig (fun () ->
          Netsim.Link.send l noop_packet;
          Des.Engine.run e))

let table_keys = 1 lsl 18

let key i =
  Netsim.Flow_key.v
    ~src:(Netsim.Addr.v (100 + (i land 63)) (1024 + (i lsr 6)))
    ~dst:(Netsim.Addr.v 1 80)

let prefilled () =
  let t = Netsim.Flow_table.create () in
  let keys = Array.init table_keys key in
  Array.iteri (fun i k -> Netsim.Flow_table.add t k i) keys;
  (t, keys)

(* Hits on a table of 2^18 live keys, visited in a scattered order. *)
let flow_table_find =
  def "netsim.flow_table.find" (fun () ->
      let t, keys = prefilled () in
      let i = ref 0 in
      rig (fun () ->
          i := (!i + 40503) land (table_keys - 1);
          ignore (Netsim.Flow_table.find t keys.(!i))))

(* Insert and delete a never-live key on the same 2^18-key table; the
   tombstone purges this triggers are part of the cost. *)
let flow_table_add_remove =
  def "netsim.flow_table.add_remove" (fun () ->
      let t, _ = prefilled () in
      let fresh = Array.init 4096 (fun i -> key (table_keys + i)) in
      let i = ref 0 in
      rig (fun () ->
          i := (!i + 1) land 4095;
          let k = fresh.(!i) in
          Netsim.Flow_table.add t k 0;
          Netsim.Flow_table.remove t k))

(* --- inband ------------------------------------------------------------- *)

(* A balancer in front of two no-op servers; the returned function hands
   it one packet and runs the engine until the forward has crossed its
   LB→server link. *)
let balancer_rig ?(config = Inband.Config.default) () =
  let e = Des.Engine.create () in
  let fab = Netsim.Fabric.create e in
  let vip = Netsim.Addr.v 1 80 in
  let server_ips = [| 10; 11 |] in
  Array.iter
    (fun ip ->
      Netsim.Fabric.register fab ~ip ignore;
      Netsim.Fabric.add_link fab ~src:vip.ip ~dst:ip
        (Netsim.Link.create e ~delay:link_delay ()))
    server_ips;
  ignore (Inband.Balancer.create fab ~vip ~server_ips ~config ());
  fun pkt ->
    let until = Des.Engine.now e + link_delay in
    Netsim.Fabric.deliver fab ~ip:vip.ip pkt;
    Des.Engine.run e ~until

let balancer_forward =
  def "inband.balancer.forward" (fun () ->
      let deliver = balancer_rig () in
      rig (fun () -> deliver noop_packet))

(* Every packet opens a fresh key. A 1 ms idle timeout lets the sweep
   retire keys before the ring of 4096 packets comes round again, so
   this times a whole flow lifetime: miss, Maglev pick, slab and table
   insert, forward, and the sweep's removal. *)
let balancer_new_flow =
  def "inband.balancer.new_flow" (fun () ->
      let config =
        {
          Inband.Config.default with
          Inband.Config.flow_idle_timeout = Des.Time.ms 1;
          sweep_interval = Des.Time.ms 1;
        }
      in
      let deliver = balancer_rig ~config () in
      let ring =
        Array.init 4096 (fun i ->
            Netsim.Packet.make
              ~src:(Netsim.Addr.v (100 + (i land 63)) (20000 + (i lsr 6)))
              ~dst:(Netsim.Addr.v 1 80) ~seq:0 ~ack:0
              ~flags:Netsim.Packet.flag_ack ~payload:"")
      in
      let i = ref 0 in
      rig (fun () ->
          i := (!i + 1) land 4095;
          deliver ring.(!i)))

let ensemble_on_packet =
  def "inband.ensemble.on_packet" (fun () ->
      let e = Inband.Ensemble.create ~config:Inband.Config.default in
      let f = Inband.Ensemble.create_flow e ~now:0 in
      let now = ref 0 in
      rig (fun () ->
          now := !now + 10_000;
          ignore (Inband.Ensemble.on_packet e f ~now:!now)))

let controller ~config =
  let pool = Maglev.Pool.create ~table_size:4099 ~names:(names 2) () in
  Inband.Controller.create ~config ~pool ()

(* The dominant non-acting sample: it lands inside the control interval
   after a commit, so it only updates the server's estimate. *)
let controller_hold =
  def "inband.controller.hold" (fun () ->
      let c =
        controller
          ~config:
            {
              Cluster.Fig3.default_scenario.lb with
              control_interval = Des.Time.sec 3600;
            }
      in
      ignore (Inband.Controller.on_sample c ~now:0 ~server:0 (Des.Time.us 100));
      ignore (Inband.Controller.on_sample c ~now:1 ~server:1 (Des.Time.us 900));
      let now = ref 1 in
      rig (fun () ->
          incr now;
          ignore
            (Inband.Controller.on_sample c ~now:!now ~server:(!now land 1)
               (Des.Time.us 100))))

(* Each call gives the other server a strictly worse sample than any
   before, so every call shifts weight and rebuilds the m = 4099, n = 2
   table. *)
let controller_act =
  def "inband.controller.act" ~unit_us:true (fun () ->
      let c =
        controller
          ~config:
            {
              Inband.Config.default with
              Inband.Config.control_interval = 0;
              ewma_alpha = 1.0;
            }
      in
      ignore (Inband.Controller.on_sample c ~now:0 ~server:1 (Des.Time.us 100));
      let i = ref 0 in
      rig (fun () ->
          incr i;
          ignore
            (Inband.Controller.on_sample c ~now:!i ~server:(!i land 1)
               (Des.Time.us 100 + !i))))

(* --- maglev ------------------------------------------------------------- *)

let maglev_lookup =
  def "maglev.lookup" (fun () ->
      let pool = Maglev.Pool.create ~table_size:65537 ~names:(names 8) () in
      let h = ref 17 in
      rig (fun () ->
          h := (!h * 1103515245) + 12345;
          ignore (Maglev.Pool.lookup pool (!h land max_int))))

let rebuild_name ~m ~n = Fmt.str "maglev.rebuild.m%d_n%d" m n

(* Alternate between two weight vectors a 10% shift apart (the paper's
   alpha), so every rebuild moves slots as a control action does. *)
let maglev_rebuild ~m ~n =
  def (rebuild_name ~m ~n) ~unit_us:true (fun () ->
      let pool = Maglev.Pool.create ~table_size:m ~names:(names n) () in
      let a = Array.init n (fun i -> if i = 0 then 1.1 else 1.0) in
      let b = Array.init n (fun i -> if i = n - 1 then 1.1 else 1.0) in
      let flip = ref false in
      rig (fun () ->
          flip := not !flip;
          Maglev.Pool.set_weights pool (if !flip then a else b);
          Maglev.Pool.rebuild pool))

(* --- tcpsim ------------------------------------------------------------- *)

(* Two endpoints over zero-delay links; the server echoes every chunk.
   One call sends 64 B and runs 10 µs of simulated time. A calibration
   pass counts the segments one call puts on the wire (both directions,
   ACKs included) and the engine events per segment, so the micro
   reports per segment and [Attribution] can subtract the events. *)
let echo_payload = String.make 64 'x'

let echo_rig () =
  let e = Des.Engine.create () in
  let fab = Netsim.Fabric.create e in
  let a = Tcpsim.Endpoint.create fab ~host_ip:10 in
  let b = Tcpsim.Endpoint.create fab ~host_ip:20 in
  let ab = Netsim.Link.create e ~delay:0 ~rate_bps:0 () in
  let ba = Netsim.Link.create e ~delay:0 ~rate_bps:0 () in
  Netsim.Fabric.add_link fab ~src:10 ~dst:20 ab;
  Netsim.Fabric.add_link fab ~src:20 ~dst:10 ba;
  Tcpsim.Endpoint.listen b ~addr:(Netsim.Addr.v 20 80) (fun conn ->
      Tcpsim.Conn.set_on_data conn (fun data -> Tcpsim.Conn.send conn data));
  let client =
    Tcpsim.Endpoint.connect a ~local:(Netsim.Addr.v 10 5000)
      ~remote:(Netsim.Addr.v 20 80) ()
  in
  Des.Engine.run e ~until:(Des.Time.us 10);
  let step () =
    Tcpsim.Conn.send client echo_payload;
    Des.Engine.run e ~until:(Des.Engine.now e + Des.Time.us 10)
  in
  let segments () = Netsim.Link.packets_sent ab + Netsim.Link.packets_sent ba in
  (e, step, segments)

let echo_calibration =
  lazy
    (let e, step, segments = echo_rig () in
     let s0 = segments () and ev0 = Des.Engine.events_fired e in
     let calls = 10_000 in
     for _ = 1 to calls do
       step ()
     done;
     let seg = float_of_int (segments () - s0) in
     ( seg /. float_of_int calls,
       float_of_int (Des.Engine.events_fired e - ev0) /. seg ))

let echo_events_per_segment () = snd (Lazy.force echo_calibration)

let tcp_echo =
  def "tcpsim.echo" (fun () ->
      let _, step, _ = echo_rig () in
      rig ~per:(fst (Lazy.force echo_calibration)) step)

(* An insert past a gap, then the in-order insert that releases both:
   two inserts per call. *)
let reassembly_insert =
  def "tcpsim.reassembly.insert" (fun () ->
      let r = Tcpsim.Reassembly.create ~rcv_nxt:0 () in
      let chunk = String.make 64 'y' in
      rig ~per:2.0 (fun () ->
          let next = Tcpsim.Reassembly.rcv_nxt r in
          ignore (Tcpsim.Reassembly.insert r ~seq:(next + 64) chunk);
          ignore (Tcpsim.Reassembly.insert r ~seq:next chunk)))

(* --- memcache ----------------------------------------------------------- *)

let value64 = String.make 64 'v'

(* One chunk holding a get and a set. *)
let reader_request =
  def "memcache.reader.request" (fun () ->
      let r = Memcache.Protocol.Reader.requests () in
      let chunk =
        Memcache.Protocol.encode_request (Get { key = "key:1234" })
        ^ Memcache.Protocol.encode_request
            (Set { key = "key:5678"; flags = 0; exptime = 0; value = value64 })
      in
      rig (fun () -> ignore (Memcache.Protocol.Reader.feed r chunk)))

(* One chunk holding a VALUE ... END hit. *)
let reader_response =
  def "memcache.reader.response" (fun () ->
      let r = Memcache.Protocol.Reader.responses () in
      let chunk =
        Memcache.Protocol.encode_response
          (Value { key = "key:1234"; flags = 0; value = value64 })
      in
      rig (fun () -> ignore (Memcache.Protocol.Reader.feed r chunk)))

(* --- telemetry, stats --------------------------------------------------- *)

let bus_publish ~subscribers =
  def (Fmt.str "telemetry.bus.publish%d" subscribers) (fun () ->
      let bus = Telemetry.Bus.create () in
      for _ = 1 to subscribers do
        ignore (Telemetry.Bus.subscribe bus ignore)
      done;
      rig (fun () -> Telemetry.Bus.publish bus 42))

let counter_incr =
  def "telemetry.counter.incr" (fun () ->
      let c = Telemetry.Registry.counter (Telemetry.Registry.create ()) "x" in
      rig (fun () -> Telemetry.Registry.Counter.incr c))

let histogram_record =
  def "stats.histogram.record" (fun () ->
      let h = Stats.Histogram.create () in
      let v = ref 1 in
      rig (fun () ->
          v := (!v * 7) mod 10_000_000;
          Stats.Histogram.record h !v))

(* --- the suite ---------------------------------------------------------- *)

let all =
  [
    post_fire;
    timer_rearm;
    shard_post_remote;
    link_send;
    flow_table_find;
    flow_table_add_remove;
    balancer_forward;
    balancer_new_flow;
    ensemble_on_packet;
    controller_hold;
    controller_act;
    maglev_lookup;
    maglev_rebuild ~m:4099 ~n:2;
    maglev_rebuild ~m:65537 ~n:8;
    tcp_echo;
    reassembly_insert;
    reader_request;
    reader_response;
    bus_publish ~subscribers:0;
    bus_publish ~subscribers:1;
    counter_incr;
    histogram_record;
  ]

(* Time every micro for [quota] seconds; results keyed by micro name. *)
let run ~quota =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false
      ~kde:None ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate witness raw =
    match Analyze.OLS.estimates (Analyze.one ols witness raw) with
    | Some [ v ] -> v
    | Some _ | None -> nan
  in
  List.map
    (fun m ->
      let r = m.setup () in
      let elt =
        List.hd (Test.elements (Test.make ~name:m.name (Staged.stage r.call)))
      in
      let raw = Benchmark.run cfg instances elt in
      r.cleanup ();
      ( m.name,
        {
          ns = estimate Toolkit.Instance.monotonic_clock raw /. r.per;
          words = estimate Toolkit.Instance.minor_allocated raw /. r.per;
        } ))
    all
