(* Tests for the network substrate: addresses, flow keys, packets,
   links and the fabric. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let addr a b = Netsim.Addr.v a b

let mk_packet ?(src = addr 100 10000) ?(dst = addr 1 11211) ?(seq = 0)
    ?(ack = 0) ?(flags = Netsim.Packet.flag_ack) ?(payload = "") () =
  Netsim.Packet.make ~src ~dst ~seq ~ack ~flags ~payload

(* --- Addr / Flow_key ---------------------------------------------------- *)

let addr_basics () =
  let a = addr 10 80 in
  check_int "ip" 10 (Netsim.Addr.ip a);
  check_int "port" 80 (Netsim.Addr.port a);
  check_bool "equal" true (Netsim.Addr.equal a (addr 10 80));
  check_bool "not equal" false (Netsim.Addr.equal a (addr 10 81));
  check_bool "compare orders by ip first" true
    (Netsim.Addr.compare (addr 1 9999) (addr 2 0) < 0);
  Alcotest.(check string) "pp" "10:80" (Fmt.str "%a" Netsim.Addr.pp a)

let flow_key_basics () =
  let k1 = Netsim.Flow_key.v ~src:(addr 100 1) ~dst:(addr 1 2) in
  let k2 = Netsim.Flow_key.v ~src:(addr 100 1) ~dst:(addr 1 2) in
  let k3 = Netsim.Flow_key.v ~src:(addr 1 2) ~dst:(addr 100 1) in
  check_bool "equal" true (Netsim.Flow_key.equal k1 k2);
  check_bool "direction matters" false (Netsim.Flow_key.equal k1 k3);
  check_int "equal keys hash equal" (Netsim.Flow_key.hash k1)
    (Netsim.Flow_key.hash k2);
  check_bool "hash non-negative" true (Netsim.Flow_key.hash k3 >= 0)

let flow_key_hash_spreads () =
  (* Sequential ports must not collide into few hash values mod a small
     table — this is what Maglev consumes. *)
  let seen = Hashtbl.create 64 in
  for port = 10_000 to 10_999 do
    let k = Netsim.Flow_key.v ~src:(addr 100 port) ~dst:(addr 1 11211) in
    Hashtbl.replace seen (Netsim.Flow_key.hash k mod 101) ()
  done;
  check_bool "covers most of a 101-slot table" true (Hashtbl.length seen > 90)

let flow_key_table () =
  let module T = Netsim.Flow_key.Table in
  let t = T.create 16 in
  let k1 = Netsim.Flow_key.v ~src:(addr 100 1) ~dst:(addr 1 2) in
  T.add t k1 "x";
  check_bool "found" true
    (T.find_opt t (Netsim.Flow_key.v ~src:(addr 100 1) ~dst:(addr 1 2))
    = Some "x");
  T.remove t k1;
  check_int "removed" 0 (T.length t)

(* --- Flow_table (open addressing) ---------------------------------------- *)

let key_of_port port =
  Netsim.Flow_key.v ~src:(addr 100 port) ~dst:(addr 1 11211)

let flow_table_basics () =
  let module FT = Netsim.Flow_table in
  let t = FT.create ~initial:16 () in
  check_int "miss is -1" (-1) (FT.find t (key_of_port 1));
  FT.add t (key_of_port 1) 42;
  FT.add t (key_of_port 2) 7;
  check_int "two entries" 2 (FT.length t);
  check_int "find 1" 42 (FT.find t (key_of_port 1));
  check_int "find 2" 7 (FT.find t (key_of_port 2));
  check_bool "mem" true (FT.mem t (key_of_port 1));
  (* Replacement updates in place: at most one binding per key. *)
  FT.add t (key_of_port 1) 43;
  check_int "replace keeps length" 2 (FT.length t);
  check_int "replace updates value" 43 (FT.find t (key_of_port 1));
  FT.remove t (key_of_port 1);
  check_int "removed is -1" (-1) (FT.find t (key_of_port 1));
  check_int "length after remove" 1 (FT.length t);
  check_int "tombstone left" 1 (FT.tombstones t);
  FT.remove t (key_of_port 1);
  check_int "double remove is a no-op" 1 (FT.tombstones t)

(* Regression: updating an existing key at high load must not resize —
   only a true insert may grow the table. The bug doubled capacity on
   every update once load crossed 3/4, ballooning a full-but-stable
   table under nothing but refreshes. *)
let flow_table_update_never_resizes () =
  let module FT = Netsim.Flow_table in
  let t = FT.create ~initial:16 () in
  for p = 1 to 12 do
    FT.add t (key_of_port p) p
  done;
  (* 12/16 = 3/4 load: the next true insert grows, an update must not. *)
  check_int "at load" 16 (FT.capacity t);
  for _ = 1 to 100 do
    for p = 1 to 12 do
      FT.add t (key_of_port p) (p + 1000)
    done
  done;
  check_int "updates leave capacity alone" 16 (FT.capacity t);
  check_int "still 12 entries" 12 (FT.length t);
  check_int "updated in place" 1001 (FT.find t (key_of_port 1));
  FT.add t (key_of_port 13) 13;
  check_int "a true insert grows" 32 (FT.capacity t)

let flow_table_tombstone_reuse () =
  let module FT = Netsim.Flow_table in
  let t = FT.create ~initial:16 () in
  for p = 0 to 7 do
    FT.add t (key_of_port p) p
  done;
  for p = 0 to 7 do
    FT.remove t (key_of_port p)
  done;
  check_int "all removed" 0 (FT.length t);
  check_int "8 tombstones" 8 (FT.tombstones t);
  let cap = FT.capacity t in
  (* Probe chains pass the vacated buckets before any empty one, so
     re-insertion reclaims tombstones instead of consuming fresh
     buckets. *)
  for p = 0 to 7 do
    FT.add t (key_of_port p) (100 + p)
  done;
  check_int "tombstones reclaimed" 0 (FT.tombstones t);
  check_int "reuse does not grow the table" cap (FT.capacity t);
  for p = 0 to 7 do
    check_int "value after reuse" (100 + p) (FT.find t (key_of_port p))
  done

let flow_table_resize_and_purge () =
  let module FT = Netsim.Flow_table in
  let t = FT.create ~initial:16 () in
  for p = 0 to 99 do
    FT.add t (key_of_port p) p
  done;
  check_int "100 live" 100 (FT.length t);
  check_bool "capacity grew" true (FT.capacity t >= 128);
  for p = 0 to 99 do
    check_int "binding survives resize" p (FT.find t (key_of_port p))
  done;
  (* Steady-state churn: constant live count, fresh keys each cycle.
     Tombstones accumulate until the load trigger rebuilds in place —
     capacity must hold, not double. *)
  let cap = FT.capacity t in
  for p = 100 to 1100 do
    FT.remove t (key_of_port (p - 100));
    FT.add t (key_of_port p) p
  done;
  check_int "live count constant under churn" 100 (FT.length t);
  check_int "purge holds capacity" cap (FT.capacity t);
  check_bool "tombstones purged periodically" true
    (4 * (FT.length t + FT.tombstones t) < 3 * FT.capacity t);
  let live = ref 0 in
  FT.iter (fun _ v -> if v >= 1001 then incr live) t;
  check_int "iter sees exactly the live bindings" 100 !live

(* --- Packet ------------------------------------------------------------- *)

let packet_wire_size () =
  let p = mk_packet ~payload:"hello" () in
  check_int "wire size" (Netsim.Packet.header_bytes + 5)
    (Netsim.Packet.wire_size p);
  check_int "payload len" 5 (Netsim.Packet.payload_len p)

let packet_pure_ack () =
  check_bool "pure ack" true (Netsim.Packet.is_pure_ack (mk_packet ()));
  check_bool "data is not pure ack" false
    (Netsim.Packet.is_pure_ack (mk_packet ~payload:"x" ()));
  check_bool "syn is not pure ack" false
    (Netsim.Packet.is_pure_ack (mk_packet ~flags:Netsim.Packet.flag_syn_ack ()));
  check_bool "fin is not pure ack" false
    (Netsim.Packet.is_pure_ack (mk_packet ~flags:Netsim.Packet.flag_fin_ack ()))

let packet_flow () =
  let p = mk_packet () in
  let k = Netsim.Packet.flow p in
  check_bool "flow src" true (Netsim.Addr.equal k.Netsim.Flow_key.src (addr 100 10000));
  check_bool "flow dst" true (Netsim.Addr.equal k.Netsim.Flow_key.dst (addr 1 11211))

(* --- Link --------------------------------------------------------------- *)

let with_link ?rate_bps ?queue_capacity ?loss_prob ?jitter ?rng ~delay f =
  let engine = Des.Engine.create () in
  let link =
    Netsim.Link.create engine ~delay ?rate_bps ?queue_capacity ?loss_prob
      ?jitter ?rng ()
  in
  let arrivals = ref [] in
  Netsim.Link.connect link (fun pkt ->
      arrivals := (Des.Engine.now engine, pkt) :: !arrivals);
  f engine link (fun () -> List.rev !arrivals)

let link_delivers_after_delay () =
  with_link ~delay:(Des.Time.us 50) ~rate_bps:0 (fun engine link arrivals ->
      Netsim.Link.send link (mk_packet ());
      Des.Engine.run engine;
      match arrivals () with
      | [ (at, _) ] -> check_int "prop delay only" (Des.Time.us 50) at
      | l -> Alcotest.failf "expected 1 arrival, got %d" (List.length l))

let link_serialization_delay () =
  (* 1000-byte payload + 54B headers at 1 Gb/s = 8.432 us of tx time. *)
  with_link ~delay:(Des.Time.us 10) ~rate_bps:1_000_000_000
    (fun engine link arrivals ->
      Netsim.Link.send link (mk_packet ~payload:(String.make 1000 'x') ());
      Des.Engine.run engine;
      match arrivals () with
      | [ (at, _) ] -> check_int "tx + prop" (8_432 + Des.Time.us 10) at
      | l -> Alcotest.failf "expected 1 arrival, got %d" (List.length l))

let link_fifo_order () =
  with_link ~delay:(Des.Time.us 5) ~rate_bps:1_000_000_000
    (fun engine link arrivals ->
      let p1 = mk_packet ~payload:"aaaa" () in
      let p2 = mk_packet ~payload:"bb" () in
      Netsim.Link.send link p1;
      Netsim.Link.send link p2;
      Des.Engine.run engine;
      match arrivals () with
      | [ (_, q1); (_, q2) ] ->
          check_bool "first in first out" true (p1 == q1);
          check_bool "second" true (p2 == q2)
      | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l))

let link_queue_overflow_drops () =
  with_link ~delay:(Des.Time.us 5) ~rate_bps:1_000_000 ~queue_capacity:2
    (fun engine link arrivals ->
      for _ = 1 to 10 do
        Netsim.Link.send link (mk_packet ~payload:"pppp" ())
      done;
      Des.Engine.run engine;
      (* One in transmission + 2 queued; 7 dropped. *)
      check_int "drops" 7 (Netsim.Link.drops link);
      check_int "delivered" 3 (List.length (arrivals ()));
      check_int "packets_sent counter" 3 (Netsim.Link.packets_sent link))

let link_random_loss () =
  let rng = Des.Rng.create ~seed:9 in
  with_link ~delay:(Des.Time.us 1) ~loss_prob:0.5 ~rng (fun engine link arrivals ->
      for _ = 1 to 1000 do
        Netsim.Link.send link (mk_packet ())
      done;
      Des.Engine.run engine;
      let delivered = List.length (arrivals ()) in
      check_int "deliveries + drops = sends" 1000
        (delivered + Netsim.Link.drops link);
      check_bool "roughly half lost" true (delivered > 400 && delivered < 600))

let link_extra_delay_injection () =
  with_link ~delay:(Des.Time.us 10) ~rate_bps:0 (fun engine link arrivals ->
      Netsim.Link.send link (mk_packet ());
      ignore
        (Des.Engine.schedule engine ~at:(Des.Time.ms 1) (fun () ->
             Netsim.Link.set_extra_delay link (Des.Time.ms 1);
             Netsim.Link.send link (mk_packet ())));
      Des.Engine.run engine;
      match arrivals () with
      | [ (t1, _); (t2, _) ] ->
          check_int "first without extra" (Des.Time.us 10) t1;
          check_int "second with extra"
            (Des.Time.ms 1 + Des.Time.ms 1 + Des.Time.us 10)
            t2;
          check_int "extra_delay getter" (Des.Time.ms 1)
            (Netsim.Link.extra_delay link)
      | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l))

let link_bytes_counted () =
  with_link ~delay:(Des.Time.us 1) (fun engine link _ ->
      let p = mk_packet ~payload:"12345" () in
      Netsim.Link.send link p;
      Des.Engine.run engine;
      check_int "bytes" (Netsim.Packet.wire_size p) (Netsim.Link.bytes_sent link))

let link_requires_connection () =
  let engine = Des.Engine.create () in
  let link = Netsim.Link.create engine ~delay:(Des.Time.us 1) () in
  Alcotest.check_raises "send before connect"
    (Invalid_argument "Link.send: not connected") (fun () ->
      Netsim.Link.send link (mk_packet ()))

let link_bad_config () =
  let engine = Des.Engine.create () in
  Alcotest.check_raises "loss without rng"
    (Invalid_argument "Link.create: loss/jitter require an rng") (fun () ->
      ignore (Netsim.Link.create engine ~delay:1 ~loss_prob:0.1 ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Link.create: negative delay") (fun () ->
      ignore (Netsim.Link.create engine ~delay:(-1) ()))

let link_conservation_qcheck =
  QCheck.Test.make ~count:50
    ~name:"link conserves packets: delivered + dropped = sent"
    QCheck.(triple (int_range 1 500) (int_range 0 80) (int_bound 10_000))
    (fun (n, loss_pct, seed) ->
      let engine = Des.Engine.create () in
      let rng = Des.Rng.create ~seed in
      let link =
        Netsim.Link.create engine ~delay:(Des.Time.us 5) ~queue_capacity:32
          ~loss_prob:(float_of_int loss_pct /. 100.0)
          ~rng ()
      in
      let delivered = ref 0 in
      Netsim.Link.connect link (fun _ -> incr delivered);
      for _ = 1 to n do
        Netsim.Link.send link (mk_packet ())
      done;
      Des.Engine.run engine;
      !delivered + Netsim.Link.drops link = n
      && !delivered = Netsim.Link.packets_sent link)

(* --- Fabric ------------------------------------------------------------- *)

let fabric_routes_by_next_hop () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let got_at_2 = ref 0 and got_at_3 = ref 0 in
  Netsim.Fabric.register fabric ~ip:2 (fun _ -> incr got_at_2);
  Netsim.Fabric.register fabric ~ip:3 (fun _ -> incr got_at_3);
  let mk () = Netsim.Link.create engine ~delay:(Des.Time.us 1) () in
  Netsim.Fabric.add_link fabric ~src:1 ~dst:2 (mk ());
  Netsim.Fabric.add_link fabric ~src:1 ~dst:3 (mk ());
  Netsim.Fabric.register fabric ~ip:1 (fun _ -> ());
  (* Default next hop = destination ip. *)
  Netsim.Fabric.send fabric ~from:1 (mk_packet ~src:(addr 1 1) ~dst:(addr 2 1) ());
  (* Explicit next hop overrides (DSR forwarding): dst says 2, carry to 3. *)
  Netsim.Fabric.forward fabric ~from:1 ~hop:3
    (mk_packet ~src:(addr 1 1) ~dst:(addr 2 1) ());
  Des.Engine.run engine;
  check_int "default hop" 1 !got_at_2;
  check_int "explicit hop" 1 !got_at_3

let fabric_errors () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  Netsim.Fabric.register fabric ~ip:2 (fun _ -> ());
  Alcotest.check_raises "reserved ip"
    (Invalid_argument "Fabric.register: ip 0 is reserved") (fun () ->
      Netsim.Fabric.register fabric ~ip:0 (fun _ -> ()));
  Alcotest.check_raises "duplicate ip"
    (Invalid_argument "Fabric.register: ip 2 already registered") (fun () ->
      Netsim.Fabric.register fabric ~ip:2 (fun _ -> ()));
  Alcotest.check_raises "link to unregistered host"
    (Invalid_argument "Fabric.add_link: destination 9 not registered")
    (fun () ->
      Netsim.Fabric.add_link fabric ~src:2 ~dst:9
        (Netsim.Link.create engine ~delay:1 ()))

let fabric_replace_handler () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let first = ref 0 and second = ref 0 in
  Netsim.Fabric.register fabric ~ip:2 (fun _ -> incr first);
  Netsim.Fabric.register fabric ~ip:1 (fun _ -> ());
  Netsim.Fabric.add_link fabric ~src:1 ~dst:2
    (Netsim.Link.create engine ~delay:1 ());
  Netsim.Fabric.replace_handler fabric ~ip:2 (fun _ -> incr second);
  Netsim.Fabric.send fabric ~from:1 (mk_packet ~src:(addr 1 1) ~dst:(addr 2 1) ());
  Des.Engine.run engine;
  check_int "old handler not called" 0 !first;
  check_int "new handler called" 1 !second

let fabric_missing_link () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  Netsim.Fabric.register fabric ~ip:1 (fun _ -> ());
  check_bool "send raises" true
    (try
       Netsim.Fabric.send fabric ~from:1
         (mk_packet ~src:(addr 1 1) ~dst:(addr 2 1) ());
       false
     with Invalid_argument _ -> true)

let fabric_link_between () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  Netsim.Fabric.register fabric ~ip:2 (fun _ -> ());
  let link = Netsim.Link.create engine ~delay:1 () in
  Netsim.Fabric.add_link fabric ~src:1 ~dst:2 link;
  check_bool "found" true (Netsim.Fabric.link_between fabric ~src:1 ~dst:2 == link);
  check_bool "absent" true
    (try
       ignore (Netsim.Fabric.link_between fabric ~src:2 ~dst:1);
       false
     with Not_found -> true)

let fabric_send_zero_alloc () =
  (* A warm hop is allocation-free: the link's ring takes the packet,
     its transmit-complete event is a preallocated closure, propagation
     is a [post_call] of the receiver, and the fabric resolves the link
     in an int-keyed table and the host through its handler cell. The
     packets are built beforehand. *)
  List.iter
    (fun rate_bps ->
      let engine = Des.Engine.create () in
      let fabric = Netsim.Fabric.create engine in
      let got = ref 0 in
      Netsim.Fabric.register fabric ~ip:1 (fun _ -> ());
      Netsim.Fabric.register fabric ~ip:2 (fun _ -> incr got);
      Netsim.Fabric.add_link fabric ~src:1 ~dst:2
        (Netsim.Link.create engine ~delay:(Des.Time.us 1) ~rate_bps ());
      let pkts =
        Array.init 10_000 (fun _ ->
            mk_packet ~src:(addr 1 1) ~dst:(addr 2 1) ())
      in
      let hops () =
        Array.iter
          (fun pkt ->
            Netsim.Fabric.send fabric ~from:1 pkt;
            Des.Engine.run engine)
          pkts
      in
      hops ();
      let w0 = Gc.minor_words () in
      hops ();
      let delta = Gc.minor_words () -. w0 in
      if delta > 64.0 then
        Alcotest.failf "10000 warm sends at %d b/s allocated %.0f minor words"
          rate_bps delta;
      check_int (Fmt.str "delivered at %d b/s" rate_bps) 20_000 !got)
    [ 0; 10_000_000_000 ]

let link_ring_wrap_and_growth () =
  (* At 1 Mb/s a 58-byte packet spends 464 us on the wire, so sends
     queue. Two departures move the ring's head, the next batch wraps
     round and then grows the ring past its first capacity, and the
     drop-tail limit still counts waiting packets only. *)
  let tx = Des.Time.us 464 in
  with_link ~delay:(Des.Time.us 5) ~rate_bps:1_000_000 ~queue_capacity:6
    (fun engine link arrivals ->
      let accepted = ref [] and sent = ref 0 in
      let send ~keep =
        incr sent;
        let pkt = mk_packet ~seq:!sent ~payload:"pppp" () in
        if keep then accepted := !sent :: !accepted;
        Netsim.Link.send link pkt
      in
      for _ = 1 to 3 do
        send ~keep:true
      done;
      check_int "one on the wire, two waiting" 3 (Netsim.Link.queue_len link);
      Des.Engine.run ~until:((2 * tx) + Des.Time.us 5) engine;
      check_int "two arrived" 2 (List.length (arrivals ()));
      check_int "third on the wire" 1 (Netsim.Link.queue_len link);
      for i = 1 to 9 do
        send ~keep:(i <= 6)
      done;
      check_int "on the wire plus six waiting" 7 (Netsim.Link.queue_len link);
      check_int "drop-tail beyond six waiting" 3
        (Netsim.Link.queue_drops link);
      Des.Engine.run engine;
      check_int "drained" 0 (Netsim.Link.queue_len link);
      Alcotest.(check (list int))
        "FIFO order across wrap and growth" (List.rev !accepted)
        (List.map (fun (_, p) -> p.Netsim.Packet.seq) (arrivals ()));
      check_int "packets_sent" 9 (Netsim.Link.packets_sent link))

let fabric_replace_handler_in_flight () =
  (* The link delivers through the host's handler cell, read when the
     packet arrives: a packet already propagating reaches the handler
     installed after it was sent. *)
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let first = ref 0 and second = ref 0 in
  Netsim.Fabric.register fabric ~ip:2 (fun _ -> incr first);
  Netsim.Fabric.register fabric ~ip:1 (fun _ -> ());
  Netsim.Fabric.add_link fabric ~src:1 ~dst:2
    (Netsim.Link.create engine ~delay:(Des.Time.us 10) ~rate_bps:0 ());
  Netsim.Fabric.send fabric ~from:1
    (mk_packet ~src:(addr 1 1) ~dst:(addr 2 1) ());
  Des.Engine.run ~until:(Des.Time.us 5) engine;
  check_int "in flight" 1 (Des.Engine.pending engine);
  Netsim.Fabric.replace_handler fabric ~ip:2 (fun _ -> incr second);
  Des.Engine.run engine;
  check_int "old handler not called" 0 !first;
  check_int "new handler called" 1 !second

let () =
  Alcotest.run "netsim"
    [
      ( "addr",
        [
          Alcotest.test_case "basics" `Quick addr_basics;
          Alcotest.test_case "flow key" `Quick flow_key_basics;
          Alcotest.test_case "hash spreads" `Quick flow_key_hash_spreads;
          Alcotest.test_case "flow table" `Quick flow_key_table;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "basics" `Quick flow_table_basics;
          Alcotest.test_case "tombstone reuse" `Quick flow_table_tombstone_reuse;
          Alcotest.test_case "update never resizes" `Quick
            flow_table_update_never_resizes;
          Alcotest.test_case "resize and purge" `Quick
            flow_table_resize_and_purge;
        ] );
      ( "packet",
        [
          Alcotest.test_case "wire size" `Quick packet_wire_size;
          Alcotest.test_case "pure ack" `Quick packet_pure_ack;
          Alcotest.test_case "flow" `Quick packet_flow;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivers after delay" `Quick
            link_delivers_after_delay;
          Alcotest.test_case "serialization" `Quick link_serialization_delay;
          Alcotest.test_case "fifo" `Quick link_fifo_order;
          Alcotest.test_case "queue overflow" `Quick link_queue_overflow_drops;
          Alcotest.test_case "random loss" `Quick link_random_loss;
          Alcotest.test_case "extra delay injection" `Quick
            link_extra_delay_injection;
          Alcotest.test_case "bytes counted" `Quick link_bytes_counted;
          Alcotest.test_case "requires connection" `Quick link_requires_connection;
          Alcotest.test_case "bad config" `Quick link_bad_config;
          Alcotest.test_case "ring wrap and growth" `Quick
            link_ring_wrap_and_growth;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ link_conservation_qcheck ] );
      ( "fabric",
        [
          Alcotest.test_case "routes by next hop" `Quick fabric_routes_by_next_hop;
          Alcotest.test_case "errors" `Quick fabric_errors;
          Alcotest.test_case "replace handler" `Quick fabric_replace_handler;
          Alcotest.test_case "missing link" `Quick fabric_missing_link;
          Alcotest.test_case "link_between" `Quick fabric_link_between;
          Alcotest.test_case "replace handler in flight" `Quick
            fabric_replace_handler_in_flight;
          Alcotest.test_case "warm send allocates nothing" `Quick
            fabric_send_zero_alloc;
        ] );
    ]
