(* The ledger's metric catalogue, the order statistics it reports, and
   the attribution that joins traced counts with micro costs. *)

type better = Lower | Higher

type spec = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** End-to-end metrics only: the share of the parent's median by
          which the metric may worsen before a change is a regression. *)
}

let better_to_string = function Lower -> "lower" | Higher -> "higher"
let spec ?bound name unit better = { name; unit; better; bound }

(* End to end, per workload, from the untraced timed repetitions. The
   wall-time bound is wide because host speed itself drifts: README.md
   gives the measured spread. *)
let e2e =
  [
    spec "wall_s" "s" Lower ~bound:0.25;
    spec "setup_s" "s" Lower ~bound:0.25;
    spec "words_per_flow" "words" Lower ~bound:0.05;
  ]

(* Counts read by the traced run. Work counts read "lower" (less work
   for the same simulated outcome); outcome counts read "higher". *)
let counts =
  [
    spec "des.events" "count" Lower;
    spec "des.events_per_s" "1/s" Higher;
    spec "gc.minor_words_per_event" "words" Lower;
    spec "gc.promoted_words_per_event" "words" Lower;
    spec "gc.major_collections" "count" Lower;
    spec "netsim.link_pkts" "count" Lower;
    spec "tcpsim.segments" "count" Lower;
    spec "inband.pkts_forwarded" "count" Lower;
    spec "inband.flows_opened" "count" Lower;
    spec "inband.samples" "count" Higher;
    spec "inband.ctl_actions" "count" Lower;
    spec "maglev.rebuilds" "count" Lower;
    spec "memcache.requests" "count" Higher;
    spec "memcache.responses" "count" Higher;
    spec "des.shard.windows" "count" Lower;
    spec "des.shard.remote_posts" "count" Lower;
    spec "des.shard.stall_s" "s" Lower;
  ]

let micros =
  List.concat_map
    (fun (m : Micros.micro) ->
      [
        spec (Micros.time_metric m) (if m.unit_us then "us" else "ns") Lower;
        spec (Micros.words_metric m) "words" Lower;
      ])
    Micros.all

(* --- Attribution -------------------------------------------------------- *)

(* Each row: a micro, its self time in ns (its own cost minus the micros
   it contains), and the traced count of its operations. A row's share
   is count x self time over the core time of the traced run (wall x
   domains). Rows whose count is not observed on a workload read 0. *)
let rows ~ns ~count ~rebuild ~echo_events =
  let post = ns "des.post_fire" and link = ns "netsim.link.send" in
  let link_self = link -. (2.0 *. post) in
  let forward = ns "inband.balancer.forward" in
  let pkts = count "inband.pkts_forwarded" in
  let opened = count "inband.flows_opened" in
  let actions = count "inband.ctl_actions" in
  let rebuild_ns =
    match rebuild with
    | Some (m, n) -> ns (Micros.rebuild_name ~m ~n)
    | None -> 0.0
  in
  [
    ("des.post_fire", post, count "des.events");
    ("netsim.link.send", link_self, count "netsim.link_pkts");
    ("netsim.flow_table.find", ns "netsim.flow_table.find", pkts);
    ("netsim.flow_table.add_remove", ns "netsim.flow_table.add_remove", opened);
    ( "inband.balancer.forward",
      forward -. link -. ns "inband.ensemble.on_packet"
      -. ns "netsim.flow_table.find",
      pkts );
    ( "inband.balancer.new_flow",
      ns "inband.balancer.new_flow" -. forward -. ns "maglev.lookup"
      -. ns "netsim.flow_table.add_remove",
      opened );
    ("inband.ensemble.on_packet", ns "inband.ensemble.on_packet", pkts);
    ( "inband.controller.hold",
      ns "inband.controller.hold",
      count "inband.samples" -. actions );
    ( "inband.controller.act",
      ns "inband.controller.act" -. ns (Micros.rebuild_name ~m:4099 ~n:2),
      actions );
    ("maglev.lookup", ns "maglev.lookup", opened);
    ("maglev.rebuild", rebuild_ns, count "maglev.rebuilds");
    ( "tcpsim.echo",
      ns "tcpsim.echo" -. link_self -. (echo_events *. post),
      count "tcpsim.segments" );
    (* One micro call parses a get and a set. *)
    ( "memcache.reader.request",
      ns "memcache.reader.request",
      count "memcache.requests" /. 2.0 );
    ( "memcache.reader.response",
      ns "memcache.reader.response",
      count "memcache.responses" );
    ( "stats.histogram.record",
      ns "stats.histogram.record",
      count "memcache.responses" );
    ( "des.shard.post_remote",
      ns "des.shard.post_remote" -. post,
      count "des.shard.remote_posts" );
  ]

let share_metric name = "attr." ^ name ^ ".share"

let attribution_specs =
  List.map
    (fun (name, _, _) -> spec (share_metric name) "fraction" Lower)
    (rows ~ns:(fun _ -> 0.0) ~count:(fun _ -> 0.0) ~rebuild:None
       ~echo_events:0.0)
  @ [
      spec "attr.covered" "fraction" Higher;
      spec "trace.overhead" "fraction" Lower;
    ]

(* Self times can come out slightly negative from micro noise; a
   negative share explains nothing, so it is clamped to 0. *)
let attribute ~ns ~count ~rebuild ~core_s =
  let shares =
    List.map
      (fun (name, self_ns, n) ->
        (share_metric name, Float.max 0.0 self_ns *. n /. 1e9 /. core_s))
      (rows ~ns ~count ~rebuild
         ~echo_events:(Micros.echo_events_per_segment ()))
  in
  let covered = List.fold_left (fun a (_, s) -> a +. s) 0.0 shares in
  shares @ [ ("attr.covered", covered) ]

let per_layer = micros @ counts @ attribution_specs

(* Failed over attempted repetitions. Printed by the ledger but not a
   BENCHMARK.json metric, which must never read 0; a [--trace] result
   line carries the same facts as [attempted] and [failed]. *)
let fail_frac = spec "fail_frac" "fraction" Lower

let find name =
  List.find_opt (fun s -> s.name = name) ((fail_frac :: e2e) @ per_layer)

(* --- Order statistics --------------------------------------------------- *)

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(values, n=4), so the ledger's spreads match
   those computed from its JSON output with Python. *)
let quartiles values =
  let d = Array.of_list (List.sort Float.compare values) in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
}

let summarize values =
  let q1, median, q3 = quartiles values in
  {
    median;
    q1;
    q3;
    min = List.fold_left Float.min infinity values;
    max = List.fold_left Float.max neg_infinity values;
    n = List.length values;
  }
