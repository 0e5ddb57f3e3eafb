(* Per-connection consistency (PCC) oracle.

   The core correctness property of a DSR load balancer: once a flow is
   established, every subsequent packet of that flow must reach the same
   backend, whatever the control plane does in between — weight shifts,
   Maglev table rebuilds, drains/restores, or fleet disagreement. The
   balancer guarantees this through its flow table (established flows
   never consult the Maglev table again) under the default
   [Remap.Preserve]; the non-preserving remap policies deliberately
   break it. This oracle measures the guarantee from the outside, as a
   [routed_bus] subscriber keeping its own independent flow -> backend
   map, and counts every break instead of only asserting absence.

   Two legitimate reassignments exist and are excluded:
   - a flow that ended (FIN/RST) may reincarnate under the same 5-tuple
     and land anywhere;
   - a flow idle past the balancer's [flow_idle_timeout] may have been
     expired and re-selected. The oracle replicates the expiry rule
     rather than peeking at the balancer's sweep: a packet arriving
     [gap > flow_idle_timeout] after its flow's previous packet may
     re-select silently.

   Intentional migrations are observed on the balancer's [remap_bus].
   The pinned semantics for the idle-gap corner: a remap is a violation
   iff the connection was live at remap time — i.e. the flow's previous
   packet was within the idle horizon of the remap instant. A remap of
   a flow the balancer simply had not swept yet (idle beyond the
   horizon oracle-side) migrates a dead connection and counts nothing,
   but the entry adopts the announced backend either way so the
   flow's next packet is judged against the post-remap truth. Without
   the remap feed, a TTL-bounded remap landing inside a shorter-than-
   timeout idle gap would race the oracle's silent-adoption rule and
   be missed or double-counted depending on packet timing.

   A violation always adopts the observed backend, so one reassignment
   is counted exactly once however many packets follow it. *)

type violation = {
  at : Des.Time.t;
  flow : Netsim.Flow_key.t;
  expected : int;
  got : int;
}

type attribution = {
  total : int;
  in_fault : int;
  outside : int;
}

type entry = { mutable server : int; mutable last_seen : Des.Time.t }

type t = {
  idle_timeout : Des.Time.t;
  window : Des.Time.t;
  flows : (Netsim.Flow_key.t, entry) Hashtbl.t;
  mutable violations_rev : violation list;
  mutable violation_count : int;
  mutable checked : int;
  (* Per-window rate, rolled on event timestamps: the gauge reports the
     last *completed* window so a metrics snapshot mid-window is not
     biased towards zero. *)
  mutable win_start : Des.Time.t;
  mutable win_checked : int;
  mutable win_violations : int;
  mutable last_rate : float;
  bus : Inband.Balancer.routed_event Telemetry.Bus.t;
  remaps : Inband.Balancer.remap_event Telemetry.Bus.t;
  mutable sub : Telemetry.Bus.subscription option;
  mutable remap_sub : Telemetry.Bus.subscription option;
}

let roll_window t at =
  if at - t.win_start >= t.window then begin
    t.last_rate <-
      (if t.win_checked > 0 then
         float_of_int t.win_violations /. float_of_int t.win_checked
       else 0.0);
    (* Jump straight to the window containing [at]: quiet periods
       produce one trailing rate, not a backlog of empty windows. *)
    t.win_start <- t.win_start + (t.window * ((at - t.win_start) / t.window));
    t.win_checked <- 0;
    t.win_violations <- 0
  end

let record_violation t ~at ~flow ~expected ~got =
  t.violations_rev <- { at; flow; expected; got } :: t.violations_rev;
  t.violation_count <- t.violation_count + 1;
  t.win_violations <- t.win_violations + 1

let on_routed t (ev : Inband.Balancer.routed_event) =
  roll_window t ev.at;
  t.checked <- t.checked + 1;
  t.win_checked <- t.win_checked + 1;
  let flags = ev.packet.Netsim.Packet.flags in
  let ended = flags.Netsim.Packet.fin || flags.Netsim.Packet.rst in
  match Hashtbl.find_opt t.flows ev.flow with
  | None ->
      (* Track from the SYN only. After a FIN drops the entry, the
         client's final teardown ACK still traverses the LB; adopting it
         here would re-add the flow — one forever-idle entry leaked per
         graceful close. A packet that is neither an opener nor from a
         tracked flow has no expectation to check anyway. *)
      if flags.Netsim.Packet.syn && not ended then
        Hashtbl.add t.flows ev.flow { server = ev.server; last_seen = ev.at }
  | Some e ->
      if ev.at - e.last_seen > t.idle_timeout then
        (* Possibly expired and re-selected: adopt the new backend. *)
        e.server <- ev.server
      else if e.server <> ev.server then begin
        record_violation t ~at:ev.at ~flow:ev.flow ~expected:e.server
          ~got:ev.server;
        (* Adopt: the reassignment is one violation, not one per
           subsequent packet. *)
        e.server <- ev.server
      end;
      e.last_seen <- ev.at;
      if ended then Hashtbl.remove t.flows ev.flow

(* An announced migration. The balancer only remaps flows live in *its*
   table; the oracle applies its own liveness rule (see the header) so
   lazily-swept dead connections do not count. *)
let on_remap t (ev : Inband.Balancer.remap_event) =
  roll_window t ev.at;
  match Hashtbl.find_opt t.flows ev.flow with
  | None -> ()
  | Some e ->
      if ev.at - e.last_seen <= t.idle_timeout then
        record_violation t ~at:ev.at ~flow:ev.flow ~expected:e.server
          ~got:ev.to_server;
      e.server <- ev.to_server

let default_window = Des.Time.ms 500

let attach ?telemetry ?index ?(window = default_window) balancer =
  let t =
    {
      idle_timeout =
        (Inband.Balancer.config balancer).Inband.Config.flow_idle_timeout;
      window = Stdlib.max 1 window;
      flows = Hashtbl.create 1024;
      violations_rev = [];
      violation_count = 0;
      checked = 0;
      win_start = 0;
      win_checked = 0;
      win_violations = 0;
      last_rate = 0.0;
      bus = Inband.Balancer.routed_bus balancer;
      remaps = Inband.Balancer.remap_bus balancer;
      sub = None;
      remap_sub = None;
    }
  in
  t.sub <- Some (Telemetry.Bus.subscribe t.bus (on_routed t));
  t.remap_sub <- Some (Telemetry.Bus.subscribe t.remaps (on_remap t));
  (match telemetry with
  | Some registry ->
      Telemetry.Registry.gauge_fn registry ?index "pcc.checked" (fun () ->
          float_of_int t.checked);
      Telemetry.Registry.gauge_fn registry ?index "pcc.violations" (fun () ->
          float_of_int t.violation_count);
      Telemetry.Registry.gauge_fn registry ?index "pcc.violation_rate"
        (fun () -> t.last_rate);
      (* Tracked-entry count: a leak here (flows re-adopted after
         retirement, or never retired) is invisible in pcc.checked but
         shows up as monotonic growth in any soak window. *)
      Telemetry.Registry.gauge_fn registry ?index "pcc.tracked" (fun () ->
          float_of_int (Hashtbl.length t.flows))
  | None -> ());
  t

let detach t =
  (match t.sub with
  | Some sub ->
      Telemetry.Bus.unsubscribe t.bus sub;
      t.sub <- None
  | None -> ());
  match t.remap_sub with
  | Some sub ->
      Telemetry.Bus.unsubscribe t.remaps sub;
      t.remap_sub <- None
  | None -> ()

let checked t = t.checked
let tracked t = Hashtbl.length t.flows
let violations t = List.rev t.violations_rev
let violation_count t = t.violation_count
let ok t = t.violation_count = 0

let violation_rate t =
  if t.checked = 0 then 0.0
  else float_of_int t.violation_count /. float_of_int t.checked


(* Ground-truth attribution: which violations fall inside a fault's
   [lo, hi] window (hi [None] = still active / permanent). The caller
   widens [hi] by any recovery slack before calling. *)
let attribute t intervals =
  let in_any at =
    List.exists
      (fun (lo, hi) ->
        at >= lo && match hi with None -> true | Some hi -> at <= hi)
      intervals
  in
  let in_fault =
    List.fold_left
      (fun acc v -> if in_any v.at then acc + 1 else acc)
      0 t.violations_rev
  in
  {
    total = t.violation_count;
    in_fault;
    outside = t.violation_count - in_fault;
  }

let pp_violation ppf v =
  Fmt.pf ppf "t=%a flow %a: backend %d -> %d" Des.Time.pp v.at
    Netsim.Flow_key.pp v.flow v.expected v.got
