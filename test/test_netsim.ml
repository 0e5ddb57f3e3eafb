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

(* --- Flow_table reference oracle --------------------------------------- *)

(* The table as it stood before keys went inline: a boxed key array, an
   int value array and a state byte per bucket, with the same hash,
   linear probing, first-tombstone reuse and 3/4 rebuild policy. The
   flat table must agree with it on every result, on [length],
   [capacity] and [tombstones], and on the whole [iter] sequence. *)
module Boxed_table = struct
  type t = {
    mutable keys : Netsim.Flow_key.t array;
    mutable vals : int array;
    mutable state : Bytes.t; (* '\000' empty, '\001' occupied, '\002' tomb *)
    mutable mask : int;
    mutable len : int;
    mutable tombs : int;
  }

  let dummy = Netsim.Flow_key.v ~src:(addr 0 0) ~dst:(addr 0 0)

  let create ?(initial = 16) () =
    let rec pow2 c = if c >= Stdlib.max 16 initial then c else pow2 (c * 2) in
    let cap = pow2 16 in
    {
      keys = Array.make cap dummy;
      vals = Array.make cap 0;
      state = Bytes.make cap '\000';
      mask = cap - 1;
      len = 0;
      tombs = 0;
    }

  let find t key =
    let rec go i =
      match Bytes.get t.state i with
      | '\000' -> -1
      | '\001' when Netsim.Flow_key.equal t.keys.(i) key -> t.vals.(i)
      | _ -> go ((i + 1) land t.mask)
    in
    go (Netsim.Flow_key.hash key land t.mask)

  let insert_fresh keys vals state mask key v =
    let i = ref (Netsim.Flow_key.hash key land mask) in
    while Bytes.get state !i = '\001' do
      i := (!i + 1) land mask
    done;
    Bytes.set state !i '\001';
    keys.(!i) <- key;
    vals.(!i) <- v

  let resize t cap =
    let keys = Array.make cap dummy and vals = Array.make cap 0 in
    let state = Bytes.make cap '\000' in
    for i = 0 to t.mask do
      if Bytes.get t.state i = '\001' then
        insert_fresh keys vals state (cap - 1) t.keys.(i) t.vals.(i)
    done;
    t.keys <- keys;
    t.vals <- vals;
    t.state <- state;
    t.mask <- cap - 1;
    t.tombs <- 0

  let add t key v =
    let rec go i tomb =
      match Bytes.get t.state i with
      | '\000' ->
          let cap = t.mask + 1 in
          if 4 * (t.len + t.tombs) >= 3 * cap then begin
            resize t (if 2 * t.len >= cap then cap * 2 else cap);
            insert_fresh t.keys t.vals t.state t.mask key v
          end
          else begin
            let j = if tomb >= 0 then tomb else i in
            if tomb >= 0 then t.tombs <- t.tombs - 1;
            Bytes.set t.state j '\001';
            t.keys.(j) <- key;
            t.vals.(j) <- v
          end;
          t.len <- t.len + 1
      | '\001' when Netsim.Flow_key.equal t.keys.(i) key -> t.vals.(i) <- v
      | '\001' -> go ((i + 1) land t.mask) tomb
      | _ -> go ((i + 1) land t.mask) (if tomb < 0 then i else tomb)
    in
    go (Netsim.Flow_key.hash key land t.mask) (-1)

  let remove t key =
    let rec go i =
      match Bytes.get t.state i with
      | '\000' -> ()
      | '\001' when Netsim.Flow_key.equal t.keys.(i) key ->
          Bytes.set t.state i '\002';
          t.keys.(i) <- dummy;
          t.len <- t.len - 1;
          t.tombs <- t.tombs + 1
      | _ -> go ((i + 1) land t.mask)
    in
    go (Netsim.Flow_key.hash key land t.mask)

  let bindings t =
    List.filter_map
      (fun i ->
        if Bytes.get t.state i = '\001' then Some (t.keys.(i), t.vals.(i))
        else None)
      (List.init (t.mask + 1) Fun.id)
end

let max_ip = (1 lsl 30) - 1
let max_port = (1 lsl 32) - 1

(* Keys the flat table must store: the edges of the packed range, keys
   that share a source and differ in the destination (and the reverse),
   and keys that a narrower packing would confuse. *)
let storable_keys =
  let k (a, b) (c, d) = Netsim.Flow_key.v ~src:(addr a b) ~dst:(addr c d) in
  [
    k (0, 0) (0, 0);
    k (max_ip, max_port) (max_ip, max_port);
    k (max_ip, 0) (0, max_port);
    k (0, max_port) (max_ip, 0);
    k (1, 0) (1, 80);
    k (0, 1 lsl 16) (1, 80);
    k (1, 1 lsl 16) (1, 80);
    k (2, 0) (1, 80);
    k (100, 7) (1, 80);
    k (100, 7) (2, 80);
    k (100, 7) (1, 81);
    k (1, 80) (100, 7);
    k (2, 80) (100, 7);
  ]

(* Keys with an address outside the packed range: [add] rejects them and
   nothing ever finds them. Each differs from a storable key only in the
   out-of-range field, or wraps onto one under a truncating packing. *)
let unstorable_keys =
  let k (a, b) (c, d) = Netsim.Flow_key.v ~src:(addr a b) ~dst:(addr c d) in
  [
    k (1 lsl 30, 0) (1, 80);
    k (0, 1 lsl 32) (1, 80);
    k (1, 0) (1, (1 lsl 32) + 80);
    k (-1, 7) (1, 80);
    k (100, -1) (1, 80);
    k (100, 7) (1 lsl 30 + 1, 80);
    k (max_int, max_int) (max_int, max_int);
  ]

(* Twelve keys whose hashes agree in the low 6 bits, so they share one
   probe chain at every capacity up to 64, half of them sharing a source
   with another key of the set. *)
let colliding_keys =
  let rec scan acc n port =
    if n = 0 then List.rev acc
    else
      let a = Netsim.Flow_key.v ~src:(addr 100 port) ~dst:(addr 1 80) in
      let b = Netsim.Flow_key.v ~src:(addr 100 port) ~dst:(addr 2 80) in
      let low k = Netsim.Flow_key.hash k land 63 in
      if low a = low b && low a = 5 then scan (b :: a :: acc) (n - 2) (port + 1)
      else if low a = 5 then scan (a :: acc) (n - 1) (port + 1)
      else scan acc n (port + 1)
  in
  scan [] 12 1

let special_keys =
  storable_keys @ colliding_keys @ unstorable_keys
  @ List.init 24 (fun i -> key_of_port (5000 + i))

let n_special = List.length special_keys

(* Then fresh keys for sliding-window churn, as the balancer sees it. *)
let oracle_keys =
  Array.of_list
    (special_keys @ List.init 600 (fun i -> key_of_port (10_000 + i)))

let storable k =
  not (List.exists (Netsim.Flow_key.equal k) unstorable_keys)

type ft_op = Add of int | Remove of int | Remove_value of int | Find of int

(* Random operations on the special keys; [adds] against [removes]
   sets how full the table runs. *)
let ft_op_gen (adds, removes) =
  let key = QCheck.Gen.int_bound (n_special - 1) in
  QCheck.Gen.(
    frequency
      [
        (adds, map (fun i -> Add i) key);
        (removes, map (fun i -> Remove i) key);
        (2, map (fun i -> Remove_value i) key);
        (3, map (fun i -> Find i) key);
      ])

(* A window of [w] live keys sliding over [m] fresh ones: every step
   adds a key, looks one up and retires the oldest, so tombstones pile
   up and rebuilds purge in place rather than double. *)
let ft_churn_gen =
  QCheck.Gen.(
    pair (int_range 1 12) (int_range 0 (Array.length oracle_keys - n_special))
    >|= fun (w, m) ->
    List.concat
      (List.init m (fun j ->
           let k = n_special + j in
           [ Add k; Find (n_special + (j / 2)) ]
           @
           if j < w then []
           else if j mod 2 = 0 then [ Remove (k - w) ]
           else [ Remove_value (k - w) ])))

let ft_case =
  QCheck.make
    ~print:(fun (initial, ops) ->
      Fmt.str "initial %d, %d ops: %s" initial (List.length ops)
        (String.concat " "
           (List.map
              (function
                | Add i -> Fmt.str "+%d" i
                | Remove i -> Fmt.str "-%d" i
                | Remove_value i -> Fmt.str "~%d" i
                | Find i -> Fmt.str "?%d" i)
              ops)))
    QCheck.Gen.(
      pair
        (oneofl [ 0; 1; 16; 17; 32; 64 ])
        (frequency
           [
             ( 3,
               oneofl [ (5, 4); (6, 2) ] >>= fun mix ->
               list_size (int_range 0 400) (ft_op_gen mix) );
             (1, ft_churn_gen);
           ]))

(* Every add binds a fresh value, so a value names one key and
   [remove_value] with a key's own hash and value removes exactly that
   key; with a value nobody holds it must leave the table alone. *)
let flat_matches_boxed (initial, ops) =
  let module FT = Netsim.Flow_table in
  let flat = FT.create ~initial () and boxed = Boxed_table.create ~initial () in
  let next = ref 0 in
  let same_state () =
    FT.length flat = boxed.Boxed_table.len
    && FT.capacity flat = boxed.Boxed_table.mask + 1
    && FT.tombstones flat = boxed.Boxed_table.tombs
    &&
    let seen = ref [] in
    FT.iter (fun k v -> seen := (k, v) :: !seen) flat;
    List.equal
      (fun (k1, v1) (k2, v2) -> Netsim.Flow_key.equal k1 k2 && v1 = v2)
      (List.rev !seen) (Boxed_table.bindings boxed)
  in
  List.for_all
    (fun op ->
      (match op with
      | Add i ->
          let k = oracle_keys.(i) in
          incr next;
          if storable k then begin
            FT.add flat k !next;
            Boxed_table.add boxed k !next;
            true
          end
          else (
            match FT.add flat k !next with
            | () -> false
            | exception Invalid_argument _ -> true)
      | Remove i ->
          FT.remove flat oracle_keys.(i);
          Boxed_table.remove boxed oracle_keys.(i);
          true
      | Remove_value i ->
          let k = oracle_keys.(i) in
          let v = Boxed_table.find boxed k in
          FT.remove_value flat ~hash:(Netsim.Flow_key.hash k)
            (if v >= 0 then v else !next + 1);
          Boxed_table.remove boxed k;
          true
      | Find i ->
          let k = oracle_keys.(i) in
          let v = Boxed_table.find boxed k in
          FT.find flat k = v && FT.mem flat k = (v >= 0))
      && same_state ())
    ops

let flow_table_oracle_qcheck =
  QCheck.Test.make ~count:300
    ~name:"flat table equals the boxed oracle under random churn" ft_case
    flat_matches_boxed

let flow_table_packed_range () =
  let module FT = Netsim.Flow_table in
  let t = FT.create () in
  List.iteri (fun i k -> FT.add t k i) storable_keys;
  List.iteri
    (fun i k -> check_int "storable key keeps its own binding" i (FT.find t k))
    storable_keys;
  List.iter
    (fun k ->
      Alcotest.check_raises "add rejects an unpackable address"
        (Invalid_argument "Flow_table.add: address out of range") (fun () ->
          FT.add t k 0);
      check_int "an unpackable key is never found" (-1) (FT.find t k);
      check_bool "nor a member" false (FT.mem t k);
      FT.remove t k)
    unstorable_keys;
  check_int "rejections leave the table alone"
    (List.length storable_keys) (FT.length t);
  Alcotest.check_raises "negative values are rejected"
    (Invalid_argument "Flow_table.add: negative value") (fun () ->
      FT.add t (key_of_port 1) (-1))

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
          Alcotest.test_case "packed range" `Quick flow_table_packed_range;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ flow_table_oracle_qcheck ] );
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
          Alcotest.test_case "missing link" `Quick fabric_missing_link;
          Alcotest.test_case "link_between" `Quick fabric_link_between;
          Alcotest.test_case "warm send allocates nothing" `Quick
            fabric_send_zero_alloc;
        ] );
    ]
