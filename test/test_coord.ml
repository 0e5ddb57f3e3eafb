(* Fleet coordination, the PCC oracle, and churn accounting. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- A small balancer world driven packet by packet -------------------- *)

let vip = Netsim.Addr.v 1 80
let server_ips = [| 10; 11; 12; 13 |]
let n_servers = Array.length server_ips
let client_ips = [ 100; 101 ]

(* Short idle horizon so generated op sequences cross flow expiry. *)
let world_config =
  {
    Inband.Config.default with
    Inband.Config.flow_idle_timeout = Des.Time.ms 50;
    sweep_interval = Des.Time.ms 10;
  }

let mk_world ?(config = world_config) () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let balancer =
    Inband.Balancer.create fabric ~vip ~server_ips
      ~policy:Inband.Policy.Latency_aware ~config ()
  in
  Array.iter
    (fun ip -> Netsim.Fabric.register fabric ~ip (fun _ -> ()))
    server_ips;
  let link () = Netsim.Link.create engine ~delay:(Des.Time.us 5) () in
  List.iter
    (fun c ->
      Netsim.Fabric.add_link fabric ~src:c ~dst:vip.Netsim.Addr.ip (link ()))
    client_ips;
  Array.iter
    (fun s ->
      Netsim.Fabric.add_link fabric ~src:vip.Netsim.Addr.ip ~dst:s (link ()))
    server_ips;
  (engine, fabric, balancer)

(* --- PCC oracle semantics over synthetic routed events ----------------- *)

let oracle_semantics () =
  let _, _, balancer = mk_world () in
  let oracle = Cluster.Oracle.attach balancer in
  let bus = Inband.Balancer.routed_bus balancer in
  let src = Netsim.Addr.v 100 1234 in
  let flow = Netsim.Flow_key.v ~src ~dst:vip in
  let publish ~at_ms ~server ~flags =
    Telemetry.Bus.publish bus
      {
        Inband.Balancer.at = Des.Time.ms at_ms;
        flow;
        server;
        packet = Netsim.Packet.make ~src ~dst:vip ~seq:0 ~ack:0 ~flags ~payload:"";
      }
  in
  (* Adoption is SYN-only: mid-flow packets carry no expectation of
     their own, and a post-FIN teardown ACK must not re-track the flow
     (that would leak one forever-idle entry per graceful close). *)
  publish ~at_ms:1 ~server:0 ~flags:Netsim.Packet.flag_syn;
  publish ~at_ms:2 ~server:0 ~flags:Netsim.Packet.flag_ack;
  check_bool "same backend is consistent" true (Cluster.Oracle.ok oracle);
  check_int "one flow tracked" 1 (Cluster.Oracle.tracked oracle);
  (* A backend change inside the idle horizon is the violation. *)
  publish ~at_ms:3 ~server:2 ~flags:Netsim.Packet.flag_ack;
  check_int "backend change violates" 1 (Cluster.Oracle.violation_count oracle);
  (match Cluster.Oracle.violations oracle with
  | [ v ] ->
      check_int "pinned backend" 0 v.Cluster.Oracle.expected;
      check_int "observed backend" 2 v.Cluster.Oracle.got
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  (* FIN ends the flow: the same 5-tuple may reincarnate anywhere. The
     FIN arrives at backend 2 — a violation adopts the observed backend
     (one reassignment = one violation), so the teardown is judged
     against the post-reassignment truth, not the original pin. *)
  publish ~at_ms:4 ~server:2 ~flags:Netsim.Packet.flag_fin_ack;
  check_int "fin releases tracking" 0 (Cluster.Oracle.tracked oracle);
  publish ~at_ms:5 ~server:1 ~flags:Netsim.Packet.flag_syn;
  check_int "reincarnation is legitimate" 1
    (Cluster.Oracle.violation_count oracle);
  (* Past the idle timeout the balancer may have expired the flow. *)
  publish ~at_ms:100 ~server:3 ~flags:Netsim.Packet.flag_ack;
  check_int "idle expiry re-selection is legitimate" 1
    (Cluster.Oracle.violation_count oracle);
  check_int "every event checked" 6 (Cluster.Oracle.checked oracle);
  Cluster.Oracle.detach oracle;
  publish ~at_ms:101 ~server:0 ~flags:Netsim.Packet.flag_ack;
  check_int "detach stops checking" 6 (Cluster.Oracle.checked oracle)

let oracle_rst () =
  let _, _, balancer = mk_world () in
  let oracle = Cluster.Oracle.attach balancer in
  let bus = Inband.Balancer.routed_bus balancer in
  let src = Netsim.Addr.v 101 4321 in
  let flow = Netsim.Flow_key.v ~src ~dst:vip in
  let publish ~at_ms ~server ~flags =
    Telemetry.Bus.publish bus
      {
        Inband.Balancer.at = Des.Time.ms at_ms;
        flow;
        server;
        packet = Netsim.Packet.make ~src ~dst:vip ~seq:0 ~ack:0 ~flags ~payload:"";
      }
  in
  publish ~at_ms:1 ~server:2 ~flags:Netsim.Packet.flag_ack;
  publish ~at_ms:2 ~server:2 ~flags:Netsim.Packet.flag_rst;
  publish ~at_ms:3 ~server:0 ~flags:Netsim.Packet.flag_ack;
  check_bool "rst ends the flow too" true (Cluster.Oracle.ok oracle)

(* Regression for the idle-gap / TTL-remap race. The pinned semantics:
   an announced remap is a violation iff the flow was live (previous
   packet within the idle horizon) at the remap instant; a remap of a
   connection the balancer simply had not swept yet migrates a dead
   flow and counts nothing. Both adopt the announced backend, so the
   next packet is judged against the post-remap truth rather than
   racing the oracle's silent re-adoption rule. The world's idle
   horizon is 50 ms. *)
let oracle_idle_gap_remap () =
  let _, _, balancer = mk_world () in
  let oracle = Cluster.Oracle.attach balancer in
  let routed = Inband.Balancer.routed_bus balancer in
  let remaps = Inband.Balancer.remap_bus balancer in
  let flow_of i = Netsim.Flow_key.v ~src:(Netsim.Addr.v 100 (2000 + i)) ~dst:vip in
  let publish ~at_ms ~flow ~server ~flags =
    Telemetry.Bus.publish routed
      {
        Inband.Balancer.at = Des.Time.ms at_ms;
        flow;
        server;
        packet =
          Netsim.Packet.make ~src:flow.Netsim.Flow_key.src ~dst:vip ~seq:0
            ~ack:0 ~flags ~payload:"";
      }
  in
  let remap ~at_ms ~flow ~from_server ~to_server =
    Telemetry.Bus.publish remaps
      { Inband.Balancer.at = Des.Time.ms at_ms; flow; from_server; to_server }
  in
  (* Live flow (29 ms since its last packet): the remap counts, once. *)
  let f0 = flow_of 0 in
  publish ~at_ms:1 ~flow:f0 ~server:0 ~flags:Netsim.Packet.flag_syn;
  remap ~at_ms:30 ~flow:f0 ~from_server:0 ~to_server:1;
  check_int "remap of a live flow counts" 1
    (Cluster.Oracle.violation_count oracle);
  (* ... and adopted: the next packet lands on the announced backend
     and must not count again (one reassignment = one violation). *)
  publish ~at_ms:40 ~flow:f0 ~server:1 ~flags:Netsim.Packet.flag_ack;
  check_int "post-remap packet is consistent" 1
    (Cluster.Oracle.violation_count oracle);
  (* Dead flow (58 ms idle, past the horizon): the balancer's lazy
     sweep just hadn't retired it yet — migrating it breaks nothing. *)
  let f1 = flow_of 1 in
  publish ~at_ms:2 ~flow:f1 ~server:2 ~flags:Netsim.Packet.flag_syn;
  remap ~at_ms:60 ~flow:f1 ~from_server:2 ~to_server:3;
  check_int "remap inside the idle gap of a dead flow is free" 1
    (Cluster.Oracle.violation_count oracle);
  (* A remap of a flow the oracle never tracked is ignored. *)
  remap ~at_ms:70 ~flow:(flow_of 2) ~from_server:0 ~to_server:1;
  check_int "untracked remap ignored" 1
    (Cluster.Oracle.violation_count oracle);
  check_int "remap events are not packets" 3 (Cluster.Oracle.checked oracle)

(* --- qcheck: PCC holds under random control-plane turbulence ----------- *)

type op =
  | Pkt of int  (* data packet on flow i *)
  | Fin of int  (* end flow i; the same 5-tuple reincarnates later *)
  | Shift of float array  (* imposed weight vector + Maglev rebuild *)
  | Drain of int
  | Restore of int
  | Rebuild  (* gratuitous Maglev rebuild *)
  | Advance of int  (* let the clock run, ms; may cross flow expiry *)

let n_flows = 12

let pp_op ppf = function
  | Pkt i -> Fmt.pf ppf "Pkt %d" i
  | Fin i -> Fmt.pf ppf "Fin %d" i
  | Shift w ->
      Fmt.pf ppf "Shift [%a]" Fmt.(array ~sep:(any ";") (fmt "%.2f")) w
  | Drain s -> Fmt.pf ppf "Drain %d" s
  | Restore s -> Fmt.pf ppf "Restore %d" s
  | Rebuild -> Fmt.pf ppf "Rebuild"
  | Advance ms -> Fmt.pf ppf "Advance %dms" ms

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> Pkt i) (int_bound (n_flows - 1)));
        (1, map (fun i -> Fin i) (int_bound (n_flows - 1)));
        ( 1,
          map
            (fun l -> Shift (Array.of_list l))
            (list_size (return n_servers) (float_range 0.01 1.0)) );
        (1, map (fun s -> Drain s) (int_bound (n_servers - 1)));
        (1, map (fun s -> Restore s) (int_bound (n_servers - 1)));
        (1, return Rebuild);
        (2, map (fun ms -> Advance ms) (int_range 1 80));
      ])

let ops_arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" Fmt.(Dump.list pp_op))
    QCheck.Gen.(list_size (int_range 20 120) op_gen)

let run_ops ops =
  let engine, fabric, balancer = mk_world () in
  let oracle = Cluster.Oracle.attach balancer in
  let controller = Inband.Balancer.controller balancer in
  let seq = Array.make n_flows 0 in
  let now () = Des.Engine.now engine in
  let step_to t = Des.Engine.run ~until:t engine in
  let send i flags =
    let cip = 100 + (i mod 2) in
    Netsim.Fabric.send fabric ~from:cip
      (Netsim.Packet.make
         ~src:(Netsim.Addr.v cip (1000 + i))
         ~dst:vip ~seq:seq.(i) ~ack:0 ~flags ~payload:"x");
    seq.(i) <- seq.(i) + 1
  in
  List.iter
    (fun op ->
      (match op with
      | Pkt i -> send i Netsim.Packet.flag_ack
      | Fin i -> send i Netsim.Packet.flag_fin_ack
      | Shift w ->
          Option.iter
            (fun c -> Inband.Controller.impose_weights c ~now:(now ()) w)
            controller
      | Drain s ->
          Option.iter
            (fun c -> Inband.Controller.drain c ~now:(now ()) ~server:s)
            controller
      | Restore s ->
          Option.iter
            (fun c -> Inband.Controller.restore c ~now:(now ()) ~server:s)
            controller
      | Rebuild -> Maglev.Pool.rebuild (Inband.Balancer.pool balancer)
      | Advance ms -> step_to (now () + Des.Time.ms ms));
      (* Drain the in-flight packets before the next control action. *)
      step_to (now () + Des.Time.us 50))
    ops;
  step_to (now () + Des.Time.ms 5);
  (match Cluster.Oracle.violations oracle with
  | [] -> ()
  | v :: _ ->
      QCheck.Test.fail_reportf "PCC violated after %d checked packets: %a"
        (Cluster.Oracle.checked oracle)
        Cluster.Oracle.pp_violation v);
  true

let pcc_property =
  QCheck.Test.make ~count:40
    ~name:
      "per-connection consistency holds under random shifts, drains, \
       restores and rebuilds"
    ops_arbitrary run_ops

(* --- qcheck: the counting oracle against an independent shadow map ----- *)

(* A second, deliberately simple bookkeeper over the same two event
   streams: flow -> (backend, last_seen), one count per reassignment of
   a live flow, remaps counted iff live at the remap instant. The
   oracle (with its window rolling, adoption rules and SYN-only
   tracking) must agree with it exactly, on any op sequence, under any
   remap policy — and preserve sequences must count zero on both. *)
type shadow = { tbl : (Netsim.Flow_key.t, int * Des.Time.t) Hashtbl.t;
                mutable count : int }

let attach_shadow balancer =
  let idle =
    (Inband.Balancer.config balancer).Inband.Config.flow_idle_timeout
  in
  let s = { tbl = Hashtbl.create 64; count = 0 } in
  let (_ : Telemetry.Bus.subscription) =
    Telemetry.Bus.subscribe
      (Inband.Balancer.routed_bus balancer)
      (fun (ev : Inband.Balancer.routed_event) ->
        let flags = ev.packet.Netsim.Packet.flags in
        let ended = flags.Netsim.Packet.fin || flags.Netsim.Packet.rst in
        match Hashtbl.find_opt s.tbl ev.flow with
        | None ->
            if flags.Netsim.Packet.syn && not ended then
              Hashtbl.replace s.tbl ev.flow (ev.server, ev.at)
        | Some (srv, seen) ->
            if ev.at - seen <= idle && srv <> ev.server then
              s.count <- s.count + 1;
            if ended then Hashtbl.remove s.tbl ev.flow
            else Hashtbl.replace s.tbl ev.flow (ev.server, ev.at))
  in
  let (_ : Telemetry.Bus.subscription) =
    Telemetry.Bus.subscribe
      (Inband.Balancer.remap_bus balancer)
      (fun (ev : Inband.Balancer.remap_event) ->
        match Hashtbl.find_opt s.tbl ev.flow with
        | None -> ()
        | Some (_, seen) ->
            if ev.at - seen <= idle then s.count <- s.count + 1;
            (* Adopt the announced backend; the gap clock keeps running
               from the flow's last packet. *)
            Hashtbl.replace s.tbl ev.flow (ev.to_server, seen))
  in
  s

let remap_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Inband.Remap.Preserve);
        (2, return Inband.Remap.Immediate);
        (2, map (fun ms -> Inband.Remap.Ttl (Des.Time.ms ms)) (int_range 0 80));
        (2, map (fun k -> Inband.Remap.Hot_k k) (int_bound 6));
      ])

let remap_ops_arbitrary =
  QCheck.make
    ~print:(fun (remap, ops) ->
      Fmt.str "%s: %a"
        (Inband.Remap.to_string remap)
        Fmt.(Dump.list pp_op)
        ops)
    QCheck.Gen.(
      pair remap_gen (list_size (int_range 20 120) op_gen))

let run_counting_ops (remap, ops) =
  let engine, fabric, balancer =
    mk_world ~config:{ world_config with Inband.Config.remap } ()
  in
  let oracle = Cluster.Oracle.attach balancer in
  let shadow = attach_shadow balancer in
  let controller = Inband.Balancer.controller balancer in
  let seq = Array.make n_flows 0 in
  let now () = Des.Engine.now engine in
  let step_to t = Des.Engine.run ~until:t engine in
  let send i flags =
    let cip = 100 + (i mod 2) in
    Netsim.Fabric.send fabric ~from:cip
      (Netsim.Packet.make
         ~src:(Netsim.Addr.v cip (1000 + i))
         ~dst:vip ~seq:seq.(i) ~ack:0 ~flags ~payload:"x");
    seq.(i) <- seq.(i) + 1
  in
  List.iter
    (fun op ->
      (match op with
      | Pkt i -> send i Netsim.Packet.flag_ack
      | Fin i -> send i Netsim.Packet.flag_fin_ack
      | Shift w ->
          Option.iter
            (fun c -> Inband.Controller.impose_weights c ~now:(now ()) w)
            controller
      | Drain s ->
          Option.iter
            (fun c -> Inband.Controller.drain c ~now:(now ()) ~server:s)
            controller
      | Restore s ->
          Option.iter
            (fun c -> Inband.Controller.restore c ~now:(now ()) ~server:s)
            controller
      | Rebuild -> Maglev.Pool.rebuild (Inband.Balancer.pool balancer)
      | Advance ms -> step_to (now () + Des.Time.ms ms));
      step_to (now () + Des.Time.us 50))
    ops;
  step_to (now () + Des.Time.ms 5);
  let counted = Cluster.Oracle.violation_count oracle in
  if counted <> shadow.count then
    QCheck.Test.fail_reportf
      "oracle counted %d violations, shadow map %d (%d packets checked, %d \
       remapped)"
      counted shadow.count
      (Cluster.Oracle.checked oracle)
      (Inband.Balancer.remapped_flows balancer);
  if remap = Inband.Remap.Preserve && counted <> 0 then
    QCheck.Test.fail_reportf "preserve counted %d violations" counted;
  true

let counting_property =
  QCheck.Test.make ~count:60
    ~name:
      "counting oracle equals the shadow map under any remap policy; \
       preserve counts zero"
    remap_ops_arbitrary run_counting_ops

(* --- Remap policy edge cases on a real balancer ------------------------ *)

let world_with remap =
  mk_world ~config:{ world_config with Inband.Config.remap } ()

(* Establish [n] live flows (SYN each, no FIN), watching the routed bus
   for every flow's current backend and the remap bus for announced
   migrations. Returns the send function for follow-up packets. *)
let establish ~engine ~fabric ~balancer n =
  let assignment = Hashtbl.create n in
  let remapped = ref [] in
  let (_ : Telemetry.Bus.subscription) =
    Telemetry.Bus.subscribe
      (Inband.Balancer.routed_bus balancer)
      (fun (ev : Inband.Balancer.routed_event) ->
        Hashtbl.replace assignment ev.flow ev.server)
  in
  let (_ : Telemetry.Bus.subscription) =
    Telemetry.Bus.subscribe
      (Inband.Balancer.remap_bus balancer)
      (fun (ev : Inband.Balancer.remap_event) ->
        remapped := (ev.flow, ev.from_server, ev.to_server) :: !remapped)
  in
  let seq = Array.make n 0 in
  let send i flags =
    let cip = 100 + (i mod 2) in
    Netsim.Fabric.send fabric ~from:cip
      (Netsim.Packet.make
         ~src:(Netsim.Addr.v cip (1000 + i))
         ~dst:vip ~seq:seq.(i) ~ack:0 ~flags ~payload:"x");
    seq.(i) <- seq.(i) + 1
  in
  for i = 0 to n - 1 do
    send i Netsim.Packet.flag_syn
  done;
  Des.Engine.run ~until:(Des.Engine.now engine + Des.Time.ms 1) engine;
  (assignment, remapped, send)

let sorted_assignment tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Drive one world through shift + drain + follow-up packets; the
   comparable outcome is (remap event log, final flow assignments). *)
let remap_script remap =
  let engine, fabric, balancer = world_with remap in
  let assignment, remapped, send = establish ~engine ~fabric ~balancer 16 in
  let c = Option.get (Inband.Balancer.controller balancer) in
  let step () = Des.Engine.run ~until:(Des.Engine.now engine + Des.Time.ms 1) engine in
  Inband.Controller.impose_weights c ~now:(Des.Engine.now engine)
    [| 1.0; 0.2; 0.2; 0.2 |];
  step ();
  Inband.Controller.drain c ~now:(Des.Engine.now engine) ~server:1;
  step ();
  for i = 0 to 15 do
    send i Netsim.Packet.flag_ack
  done;
  step ();
  ( List.rev !remapped,
    sorted_assignment assignment,
    Inband.Balancer.remapped_flows balancer )

(* ttl:0 has no idle bar at all — every live flow requalifies at every
   rebuild, which is exactly what immediate does. *)
let remap_ttl0_equals_immediate () =
  let ra, aa, ca = remap_script (Inband.Remap.Ttl 0) in
  let rb, ab, cb = remap_script Inband.Remap.Immediate in
  check_bool "ttl:0 remap log equals immediate's" true (ra = rb);
  check_bool "ttl:0 assignments equal immediate's" true (aa = ab);
  check_int "ttl:0 migration count equals immediate's" cb ca;
  check_bool "the script migrated something" true (ca > 0)

(* hot_k:0 migrates the top zero flows — preserve with extra steps. *)
let remap_hot_k0_equals_preserve () =
  let ra, aa, ca = remap_script (Inband.Remap.Hot_k 0) in
  let rb, ab, cb = remap_script Inband.Remap.Preserve in
  check_bool "hot_k:0 never remaps" true (ra = []);
  check_int "hot_k:0 counter stays zero" 0 ca;
  check_int "preserve counter stays zero" 0 cb;
  check_bool "hot_k:0 assignments equal preserve's" true (aa = ab);
  check_bool "preserve remap log empty" true (rb = [])

(* hot_k with K above the victim's live-flow count evacuates the victim
   completely: every flow pinned there migrates, exactly once, and
   never back onto the victim. *)
let remap_hot_k_evacuates_victim () =
  let engine, fabric, balancer = world_with (Inband.Remap.Hot_k 1000) in
  let assignment, remapped, _send = establish ~engine ~fabric ~balancer 16 in
  let victim = 0 in
  let on_victim =
    Hashtbl.fold
      (fun flow server acc -> if server = victim then flow :: acc else acc)
      assignment []
  in
  check_bool "some flows start on the victim" true (on_victim <> []);
  let c = Option.get (Inband.Balancer.controller balancer) in
  Inband.Controller.drain c ~now:(Des.Engine.now engine) ~server:victim;
  Des.Engine.run ~until:(Des.Engine.now engine + Des.Time.ms 1) engine;
  let events = List.rev !remapped in
  check_int "every victim flow migrated" (List.length on_victim)
    (List.length events);
  List.iter
    (fun (flow, from_server, to_server) ->
      check_bool "migrated off the victim" true (from_server = victim);
      check_bool "not back onto the victim" true (to_server <> victim);
      check_int "each victim flow exactly once" 1
        (List.length
           (List.filter (fun (f, _, _) -> f = flow) events)))
    events;
  List.iter
    (fun flow ->
      check_bool "victim flow appears in the log" true
        (List.exists (fun (f, _, _) -> f = flow) events))
    on_victim

(* A remap while a drain is active must never pick the drained server:
   the drain commit itself remaps away from it, and a later shift's
   remap keeps avoiding it until the restore. *)
let remap_avoids_drained_server () =
  let engine, fabric, balancer = world_with Inband.Remap.Immediate in
  let _assignment, remapped, _send = establish ~engine ~fabric ~balancer 16 in
  let drained = 2 in
  let c = Option.get (Inband.Balancer.controller balancer) in
  let step () = Des.Engine.run ~until:(Des.Engine.now engine + Des.Time.ms 1) engine in
  Inband.Controller.drain c ~now:(Des.Engine.now engine) ~server:drained;
  step ();
  Inband.Controller.impose_weights c ~now:(Des.Engine.now engine)
    [| 0.1; 1.0; 1.0; 0.3 |];
  step ();
  check_bool "the drain and shift remapped something" true (!remapped <> []);
  List.iter
    (fun (_, _, to_server) ->
      check_bool "never onto the drained server" true (to_server <> drained))
    !remapped

(* --- Coordination: leader/follower over a bare controller pair --------- *)

let mk_controller () =
  let pool = Maglev.Pool.create ~names:[| "a"; "b" |] () in
  Inband.Controller.create ~config:Inband.Config.default ~pool ()

let leader_follower () =
  let engine = Des.Engine.create () in
  let c0 = mk_controller () and c1 = mk_controller () in
  let coord =
    Cluster.Coordination.create ~engine
      ~config:
        {
          Cluster.Coordination.default_config with
          Cluster.Coordination.policy = Cluster.Coordination.Leader;
        }
      ~controllers:[| c0; c1 |] ()
  in
  check_bool "leader stays autonomous" true (Inband.Controller.is_autonomous c0);
  check_bool "follower is not" false (Inband.Controller.is_autonomous c1);
  (* Uniform weights everywhere: snapshots flow but nothing is imposed. *)
  Des.Engine.run ~until:(Des.Time.ms 25) engine;
  check_bool "snapshots flow" true (Cluster.Coordination.messages_sent coord > 0);
  check_int "identical weights impose nothing" 0
    (Cluster.Coordination.imposed coord);
  (* The leader moves; the follower adopts within a period + delay. *)
  Inband.Controller.impose_weights c0 ~now:(Des.Time.ms 25) [| 0.9; 0.1 |];
  Des.Engine.run ~until:(Des.Time.ms 50) engine;
  check_bool "follower adopted the leader's weights" true
    (Float.abs ((Inband.Controller.weights c1).(0) -. 0.9) < 1e-9);
  check_bool "imposition counted" true (Cluster.Coordination.imposed coord >= 1);
  (* Drained backends stay pinned through imposes. *)
  Inband.Controller.drain c1 ~now:(Des.Time.ms 50) ~server:1;
  Inband.Controller.impose_weights c0 ~now:(Des.Time.ms 50) [| 0.5; 0.5 |];
  Des.Engine.run ~until:(Des.Time.ms 80) engine;
  check_bool "drain survives imposed weights" true
    ((Inband.Controller.weights c1).(1) < 0.1);
  Inband.Controller.restore c1 ~now:(Des.Time.ms 80) ~server:1;
  (* Stop: timers cease, in-flight snapshots still land. *)
  Cluster.Coordination.stop coord;
  Des.Engine.run ~until:(Des.Time.ms 200) engine;
  let sent = Cluster.Coordination.messages_sent coord in
  Des.Engine.run ~until:(Des.Time.ms 400) engine;
  check_int "no messages after stop" sent
    (Cluster.Coordination.messages_sent coord);
  check_int "all sent arrived (no loss)"
    (Cluster.Coordination.messages_sent coord)
    (Cluster.Coordination.messages_received coord
    + Cluster.Coordination.dropped coord)

(* Satellite: the leader-mode staleness bound is inclusive. A snapshot
   whose age on arrival is exactly the bound is adopted; one tick past
   is rejected as stale — and [ctl.actions] counts only the accepted
   commit. The channel delay is the age at delivery, so setting
   [delay = staleness_bound] lands the snapshot exactly on the
   boundary. *)
let staleness_boundary () =
  let case ~delay =
    let engine = Des.Engine.create () in
    let c0 = mk_controller () and c1 = mk_controller () in
    let coord =
      Cluster.Coordination.create ~engine
        ~config:
          {
            Cluster.Coordination.default_config with
            Cluster.Coordination.policy = Cluster.Coordination.Leader;
            period = Des.Time.ms 100;
            delay;
          }
        ~controllers:[| c0; c1 |] ()
    in
    (* The leader's weights must differ from the follower's, or the
       delivery counts as a no-change suppression, not an adoption. *)
    Inband.Controller.impose_weights c0 ~now:0 [| 0.9; 0.1 |];
    (* The first leader snapshot publishes at t = period and arrives at
       t = period + delay; stop just after, before the second lands. *)
    Des.Engine.run ~until:(Des.Time.ms 100 + delay + Des.Time.ms 1) engine;
    Cluster.Coordination.stop coord;
    (coord, c1)
  in
  let bound =
    Cluster.Coordination.default_config.Cluster.Coordination.staleness_bound
  in
  (* Exactly at the 500 ms bound: accepted. *)
  let coord, c1 = case ~delay:bound in
  check_int "at-bound snapshot imposed" 1 (Cluster.Coordination.imposed coord);
  check_int "at-bound nothing stale" 0 (Cluster.Coordination.stale coord);
  check_bool "follower adopted the leader's weights" true
    (Float.abs ((Inband.Controller.weights c1).(0) -. 0.9) < 1e-9);
  check_int "ctl.actions counts the accepted commit" 1
    (Inband.Controller.action_count c1);
  check_int "imposed_count matches" 1 (Inband.Controller.imposed_count c1);
  (* One tick past the bound: rejected. *)
  let coord, c1 = case ~delay:(bound + 1) in
  check_int "past-bound snapshot not imposed" 0
    (Cluster.Coordination.imposed coord);
  check_int "past-bound counted stale" 1 (Cluster.Coordination.stale coord);
  check_bool "follower kept uniform weights" true
    (Float.abs ((Inband.Controller.weights c1).(0) -. 0.5) < 1e-9);
  check_int "ctl.actions counts only the accepted commit" 0
    (Inband.Controller.action_count c1)

let lossy_channel () =
  let engine = Des.Engine.create () in
  let c0 = mk_controller () and c1 = mk_controller () in
  let coord =
    Cluster.Coordination.create ~engine
      ~config:
        {
          Cluster.Coordination.default_config with
          Cluster.Coordination.policy = Cluster.Coordination.Gossip_average;
          loss = 0.5;
        }
      ~controllers:[| c0; c1 |] ()
  in
  Des.Engine.run ~until:(Des.Time.sec 1) engine;
  Cluster.Coordination.stop coord;
  Des.Engine.run ~until:(Des.Time.sec 2) engine;
  let sent = Cluster.Coordination.messages_sent coord in
  let recv = Cluster.Coordination.messages_received coord in
  let dropped = Cluster.Coordination.dropped coord in
  check_bool "some dropped" true (dropped > 0);
  check_bool "some delivered" true (recv > 0);
  check_int "sent = received + dropped" sent (recv + dropped)

let policy_strings () =
  List.iter
    (fun p ->
      match
        Cluster.Coordination.policy_of_string
          (Cluster.Coordination.policy_to_string p)
      with
      | Ok p' -> check_bool "round-trip" true (p = p')
      | Error msg -> Alcotest.fail msg)
    Cluster.Coordination.[ Uncoordinated; Gossip_average; Leader ];
  check_bool "gossip-average alias" true
    (Cluster.Coordination.policy_of_string "gossip-average"
    = Ok Cluster.Coordination.Gossip_average);
  check_bool "unknown rejected" true
    (Result.is_error (Cluster.Coordination.policy_of_string "quorum"))

let config_validation () =
  let base = Cluster.Coordination.default_config in
  let bad config =
    Result.is_error (Cluster.Coordination.validate config)
  in
  check_bool "default ok" true
    (Result.is_ok (Cluster.Coordination.validate base));
  check_bool "loss >= 1 rejected" true
    (bad { base with Cluster.Coordination.loss = 1.0 });
  check_bool "negative delay rejected" true
    (bad { base with Cluster.Coordination.delay = -1 });
  check_bool "zero period rejected" true
    (bad { base with Cluster.Coordination.period = 0 })

(* --- Fleet-level: the short herd run per policy ------------------------ *)

let short_herd coord n_lbs =
  Cluster.Ablations.herd_one ~coord ~n_lbs ~duration:(Des.Time.sec 3)
    ~inject_at:(Des.Time.sec 1) ()

let fleet_gossip_cuts_churn () =
  let none = short_herd Cluster.Coordination.Uncoordinated 2 in
  let gossip = short_herd Cluster.Coordination.Gossip_average 2 in
  check_bool "uncoordinated fleet churns" true
    (none.Cluster.Ablations.total_actions > 0);
  check_bool "gossip cuts fleet churn" true
    (gossip.Cluster.Ablations.total_actions
    < none.Cluster.Ablations.total_actions);
  check_bool "hysteresis suppressed shifts" true
    (gossip.Cluster.Ablations.suppressed > 0);
  check_bool "snapshots were exchanged" true
    (gossip.Cluster.Ablations.msgs > 0);
  check_int "gossip run is PCC-clean" 0 gossip.Cluster.Ablations.pcc_violations;
  check_int "uncoordinated run is PCC-clean" 0
    none.Cluster.Ablations.pcc_violations

let fleet_leader_imposes () =
  let leader = short_herd Cluster.Coordination.Leader 2 in
  check_bool "followers adopt leader weights" true
    (leader.Cluster.Ablations.imposed > 0);
  (match leader.Cluster.Ablations.per_lb_actions with
  | [ l0; l1 ] ->
      check_bool "follower churns less than the leader" true (l1 < l0)
  | other ->
      Alcotest.failf "expected 2 per-LB counters, got %d" (List.length other));
  check_int "leader run is PCC-clean" 0 leader.Cluster.Ablations.pcc_violations

let fleet ~policy n_lbs =
  {
    Cluster.Ablations.fleet_scenario with
    Cluster.Scenario.n_lbs;
    coord =
      { Cluster.Coordination.default_config with Cluster.Coordination.policy };
  }

(* Fleet-total ctl.actions must equal the sum of the per-LB telemetry
   counters, for every fleet size and coordination policy. *)
let churn_accounting () =
  List.iter
    (fun policy ->
      List.iter
        (fun n_lbs ->
          let label =
            Fmt.str "%s x%d"
              (Cluster.Coordination.policy_to_string policy)
              n_lbs
          in
          let t = Cluster.Scenario.build (fleet ~policy n_lbs) in
          let oracles = Cluster.Scenario.attach_pcc t in
          Cluster.Scenario.inject_server_delay t ~server:1 ~at:(Des.Time.sec 1)
            ~delay:(Des.Time.ms 1);
          Cluster.Scenario.run t ~until:(Des.Time.sec 3);
          let per_lb =
            Array.to_list (Cluster.Scenario.balancers t)
            |> List.map (fun b ->
                   match Inband.Balancer.controller b with
                   | Some c -> Inband.Controller.action_count c
                   | None -> 0)
          in
          (* Every LB's registry holds its own ctl.actions;
             [metric_sum] adds them up. *)
          let from_registries =
            int_of_float
              (Option.value ~default:0.0
                 (Cluster.Scenario.metric_sum t "ctl.actions"))
          in
          check_int
            (label ^ ": fleet total = sum of per-LB ctl.actions")
            (List.fold_left ( + ) 0 per_lb)
            from_registries;
          let pcc f = Array.fold_left (fun acc o -> acc + f o) 0 oracles in
          check_int (label ^ ": PCC-clean") 0 (pcc Cluster.Oracle.violation_count);
          check_bool (label ^ ": oracle saw traffic") true
            (pcc Cluster.Oracle.checked > 0))
        [ 1; 2; 4 ])
    Cluster.Coordination.[ Uncoordinated; Gossip_average; Leader ]

let sweep_deterministic_at_any_jobs () =
  let run jobs =
    Cluster.Ablations.coord_sweep ~jobs
      ~policies:[ Cluster.Coordination.Gossip_average ] ~lb_counts:[ 2 ]
      ~duration:(Des.Time.sec 2) ~inject_at:(Des.Time.sec 1) ()
  in
  check_bool "rows identical at -j 1 and -j 2" true (compare (run 1) (run 2) = 0)

let () =
  Alcotest.run "coord"
    [
      ( "oracle",
        [
          Alcotest.test_case "semantics" `Quick oracle_semantics;
          Alcotest.test_case "rst" `Quick oracle_rst;
          Alcotest.test_case "idle-gap remap" `Quick oracle_idle_gap_remap;
          QCheck_alcotest.to_alcotest pcc_property;
          QCheck_alcotest.to_alcotest counting_property;
        ] );
      ( "remap",
        [
          Alcotest.test_case "ttl:0 = immediate" `Quick
            remap_ttl0_equals_immediate;
          Alcotest.test_case "hot_k:0 = preserve" `Quick
            remap_hot_k0_equals_preserve;
          Alcotest.test_case "hot_k evacuates the victim" `Quick
            remap_hot_k_evacuates_victim;
          Alcotest.test_case "drain is never a remap target" `Quick
            remap_avoids_drained_server;
        ] );
      ( "coordination",
        [
          Alcotest.test_case "leader-follower" `Quick leader_follower;
          Alcotest.test_case "staleness boundary" `Quick staleness_boundary;
          Alcotest.test_case "lossy channel" `Quick lossy_channel;
          Alcotest.test_case "policy strings" `Quick policy_strings;
          Alcotest.test_case "config validation" `Quick config_validation;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "gossip cuts churn" `Slow fleet_gossip_cuts_churn;
          Alcotest.test_case "leader imposes" `Slow fleet_leader_imposes;
          Alcotest.test_case "churn accounting" `Slow churn_accounting;
          Alcotest.test_case "jobs-deterministic" `Slow
            sweep_deterministic_at_any_jobs;
        ] );
    ]
