(* Tests for Maglev hashing, permutations, table population (incl.
   weights) and the pool. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Hashing ----------------------------------------------------------- *)

let hash_deterministic () =
  check_int "stable across calls"
    (Maglev.Hashing.string ~seed:1 "backend-a")
    (Maglev.Hashing.string ~seed:1 "backend-a");
  check_bool "seed changes hash" true
    (Maglev.Hashing.string ~seed:1 "x" <> Maglev.Hashing.string ~seed:2 "x");
  check_bool "name changes hash" true
    (Maglev.Hashing.string ~seed:1 "x" <> Maglev.Hashing.string ~seed:1 "y");
  check_bool "non-negative" true (Maglev.Hashing.string ~seed:1 "z" >= 0);
  check_bool "int hash non-negative" true (Maglev.Hashing.int ~seed:3 (-5) >= 0)

let primes () =
  List.iter
    (fun (n, expect) ->
      check_bool (Fmt.str "is_prime %d" n) expect (Maglev.Hashing.is_prime n))
    [ (0, false); (1, false); (2, true); (3, true); (4, false); (17, true);
      (25, false); (4099, true); (65537, true); (65536, false) ];
  check_int "next_prime 4096" 4099 (Maglev.Hashing.next_prime 4096);
  check_int "next_prime of a prime" 17 (Maglev.Hashing.next_prime 17)

(* --- Permutation -------------------------------------------------------- *)

let permutation_is_permutation () =
  let size = 101 in
  let p = Maglev.Permutation.create ~name:"backend-7" ~size in
  let seen = Array.make size false in
  for j = 0 to size - 1 do
    let slot = Maglev.Permutation.nth p j in
    check_bool "in range" true (slot >= 0 && slot < size);
    check_bool "no repeat within a period" false seen.(slot);
    seen.(slot) <- true
  done;
  check_bool "covers all slots" true (Array.for_all (fun b -> b) seen)

let permutation_wraps () =
  let size = 13 in
  let p = Maglev.Permutation.create ~name:"b" ~size in
  for j = 0 to size - 1 do
    check_int "wraps to the same sequence" (Maglev.Permutation.nth p j)
      (Maglev.Permutation.nth p (j + size))
  done

let permutation_nth_pure () =
  (* [nth] is the closed form of the walk the populate kernel steps
     incrementally: start at [offset], add [skip] modulo the size. *)
  let size = 11 in
  let p = Maglev.Permutation.create ~name:"c" ~size in
  let third = Maglev.Permutation.nth p 3 in
  ignore (Maglev.Permutation.nth p 7);
  check_int "nth has no state" third (Maglev.Permutation.nth p 3);
  let offset = Maglev.Permutation.offset p in
  let skip = Maglev.Permutation.skip p in
  check_bool "skip in range" true (skip >= 1 && skip < size);
  for j = 0 to 2 * size do
    check_int "offset + j * skip" ((offset + (j * skip)) mod size)
      (Maglev.Permutation.nth p j)
  done

let permutation_requires_prime () =
  Alcotest.check_raises "composite size"
    (Invalid_argument "Permutation.create: size must be a prime >= 3")
    (fun () -> ignore (Maglev.Permutation.create ~name:"x" ~size:10))

let permutation_qcheck =
  QCheck.Test.make ~count:100 ~name:"every backend name yields a permutation"
    QCheck.(string_of_size Gen.(int_range 1 20))
    (fun name ->
      let size = 53 in
      let p = Maglev.Permutation.create ~name ~size in
      let seen = Array.make size false in
      let ok = ref true in
      for j = 0 to size - 1 do
        let s = Maglev.Permutation.nth p j in
        if seen.(s) then ok := false;
        seen.(s) <- true
      done;
      !ok)

(* --- Reference oracle ---------------------------------------------------- *)

(* The weighted populate loop as it stood before the allocation-free
   kernel replaced it: a closure per claim that probes the int table, an
   initial fill with -1, and no disruption count. [Permutation] no longer
   has a cursor, so this loop keeps its own and steps [Permutation.nth],
   the closed form, where the kernel walks offset and skip. *)
let oracle_populate ~size ~backends =
  if Array.length backends = 0 then invalid_arg "Table.populate: no backends";
  if not (Maglev.Hashing.is_prime size) then
    invalid_arg "Table.populate: size must be prime";
  Array.iter
    (fun (_, w) ->
      if Float.is_nan w then invalid_arg "Table.populate: NaN weight")
    backends;
  let n = Array.length backends in
  let max_weight =
    Array.fold_left (fun acc (_, w) -> Float.max acc w) 0.0 backends
  in
  if max_weight <= 0.0 then invalid_arg "Table.populate: all weights <= 0";
  let perms =
    Array.map (fun (name, _) -> Maglev.Permutation.create ~name ~size) backends
  in
  let cursors = Array.make n 0 in
  let next i =
    let slot = Maglev.Permutation.nth perms.(i) cursors.(i) in
    cursors.(i) <- cursors.(i) + 1;
    slot
  in
  let table = Array.make size (-1) in
  let filled = ref 0 in
  let credit = Array.make n 0.0 in
  (* A backend claims its next preferred slot that is still free. *)
  let claim i =
    let rec go () =
      if !filled < size then begin
        let slot = next i in
        if table.(slot) = -1 then begin
          table.(slot) <- i;
          incr filled
        end
        else go ()
      end
    in
    go ()
  in
  while !filled < size do
    for i = 0 to n - 1 do
      let _, w = backends.(i) in
      if w > 0.0 then begin
        credit.(i) <- credit.(i) +. (w /. max_weight);
        while credit.(i) >= 1.0 && !filled < size do
          credit.(i) <- credit.(i) -. 1.0;
          claim i
        done
      end
    done
  done;
  table

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

(* Weight vectors of the shapes that stress the credit arithmetic: all
   equal, random with zeros and tiny weights mixed in (possibly all
   zero, which both sides must reject alike), and all but one zero. *)
let weights_gen n =
  QCheck.Gen.(
    oneof
      [
        map (fun w -> Array.make n w) (float_range 1e-3 10.0);
        array_size (return n)
          (frequency
             [ (1, return 0.0); (1, return 1e-3); (4, float_range 0.0 10.0) ]);
        map2
          (fun k w -> Array.init n (fun i -> if i = k then w else 0.0))
          (int_bound (n - 1)) (float_range 1e-3 10.0);
      ])

let pp_weights = Fmt.(brackets (array ~sep:(any ";") (fmt "%h")))

let equality_case sizes =
  QCheck.make
    ~print:(fun (size, salt, ws) ->
      Fmt.str "size=%d salt=%d weights=%a" size salt pp_weights ws)
    QCheck.Gen.(
      triple (oneofl sizes) (int_bound 1_000_000) (int_range 1 12)
      >>= fun (size, salt, n) ->
      map (fun ws -> (size, salt, ws)) (weights_gen n))

let kernel_matches_oracle (size, salt, ws) =
  let backends = Array.mapi (fun i w -> (Fmt.str "b%d-%d" salt i, w)) ws in
  outcome (fun () -> Maglev.Table.populate ~size ~backends ())
  = outcome (fun () -> oracle_populate ~size ~backends)

let table_equals_oracle_qcheck =
  QCheck.Test.make ~count:500 ~name:"kernel table equals the oracle's"
    (equality_case [ 3; 5; 7; 101; 1021; 4099 ])
    kernel_matches_oracle

let table_equals_oracle_large_qcheck =
  QCheck.Test.make ~count:6 ~name:"kernel table equals the oracle's at 65537"
    (equality_case [ 65537 ]) kernel_matches_oracle

(* --- Table --------------------------------------------------------------- *)

let backends_of n = Array.init n (fun i -> (Fmt.str "server-%d" i, 1.0))

let table_fills_every_slot () =
  let table = Maglev.Table.populate ~size:1021 ~backends:(backends_of 5) () in
  check_int "size" 1021 (Array.length table);
  Array.iter (fun owner -> check_bool "owned" true (owner >= 0 && owner < 5)) table

let table_equal_weights_near_equal_shares () =
  let n = 7 in
  let table = Maglev.Table.populate ~size:4099 ~backends:(backends_of n) () in
  let shares = Maglev.Table.slot_shares table ~n in
  Array.iter
    (fun s ->
      check_bool
        (Fmt.str "share %.4f within 2%% of 1/%d" s n)
        true
        (Float.abs (s -. (1.0 /. float_of_int n)) < 0.02))
    shares

let table_weighted_shares_proportional () =
  let backends = [| ("a", 3.0); ("b", 1.0) |] in
  let table = Maglev.Table.populate ~size:4099 ~backends () in
  let shares = Maglev.Table.slot_shares table ~n:2 in
  check_bool "3:1 split" true (Float.abs (shares.(0) -. 0.75) < 0.02);
  check_bool "minority" true (Float.abs (shares.(1) -. 0.25) < 0.02)

let table_zero_weight_gets_nothing () =
  let backends = [| ("a", 1.0); ("b", 0.0); ("c", 1.0) |] in
  let table = Maglev.Table.populate ~size:1021 ~backends () in
  let shares = Maglev.Table.slot_shares table ~n:3 in
  Alcotest.(check (float 1e-9)) "zero weight, zero slots" 0.0 shares.(1)

let table_weighted_qcheck =
  QCheck.Test.make ~count:50 ~name:"slot shares track arbitrary weights"
    QCheck.(list_of_size (Gen.int_range 2 8) (float_range 0.05 10.0))
    (fun weights ->
      let n = List.length weights in
      let backends =
        Array.of_list (List.mapi (fun i w -> (Fmt.str "s%d" i, w)) weights)
      in
      let table = Maglev.Table.populate ~size:4099 ~backends () in
      let shares = Maglev.Table.slot_shares table ~n in
      let total = List.fold_left ( +. ) 0.0 weights in
      List.for_all2
        (fun w s -> Float.abs (s -. (w /. total)) < 0.05)
        weights (Array.to_list shares))

let table_backend_removal_minimal_disruption () =
  (* Removing one of n backends should move ~1/n of slots, not reshuffle
     everything — Maglev's headline property. *)
  let n = 10 in
  let t1 = Maglev.Table.populate ~size:4099 ~backends:(backends_of n) () in
  let removed =
    Array.of_list
      (List.filteri (fun i _ -> i <> 3) (Array.to_list (backends_of n)))
  in
  let t2 = Maglev.Table.populate ~size:4099 ~backends:removed () in
  (* Compare by name: slot owners in t2 index a 9-element array. *)
  let name1 i = fst (backends_of n).(i) in
  let name2 i = fst removed.(i) in
  let moved = ref 0 in
  Array.iteri
    (fun slot owner1 ->
      if name1 owner1 <> name2 t2.(slot) then incr moved)
    t1;
  let fraction = float_of_int !moved /. 4099.0 in
  check_bool
    (Fmt.str "moved fraction %.3f below 0.2" fraction)
    true (fraction < 0.2)

let table_small_weight_change_small_disruption () =
  let t1 = Maglev.Table.populate ~size:4099 ~backends:[| ("a", 0.5); ("b", 0.5) |] () in
  let t2 = Maglev.Table.populate ~size:4099 ~backends:[| ("a", 0.45); ("b", 0.55) |] () in
  let d = Maglev.Table.disruption t1 t2 in
  check_bool (Fmt.str "disruption %.3f ~ 5%%" d) true (d > 0.01 && d < 0.12)

let table_errors () =
  Alcotest.check_raises "no backends"
    (Invalid_argument "Table.populate: no backends") (fun () ->
      ignore (Maglev.Table.populate ~size:11 ~backends:[||] ()));
  Alcotest.check_raises "composite size"
    (Invalid_argument "Table.populate: size must be prime") (fun () ->
      ignore (Maglev.Table.populate ~size:10 ~backends:(backends_of 2) ()));
  Alcotest.check_raises "all zero weights"
    (Invalid_argument "Table.populate: all weights <= 0") (fun () ->
      ignore (Maglev.Table.populate ~size:11 ~backends:[| ("a", 0.0) |] ()));
  Alcotest.check_raises "NaN weight"
    (Invalid_argument "Table.populate: NaN weight") (fun () ->
      ignore
        (Maglev.Table.populate ~size:11
           ~backends:[| ("a", 1.0); ("b", Float.nan) |]
           ()));
  Alcotest.check_raises "disruption length mismatch"
    (Invalid_argument "Table.disruption: length mismatch") (fun () ->
      ignore (Maglev.Table.disruption [| 0 |] [| 0; 1 |]))

let table_deterministic () =
  let a = Maglev.Table.populate ~size:1021 ~backends:(backends_of 4) () in
  let b = Maglev.Table.populate ~size:1021 ~backends:(backends_of 4) () in
  check_bool "same inputs, same table" true (a = b)

(* --- Pool ------------------------------------------------------------------ *)

let names n = Array.init n (fun i -> Fmt.str "server-%d" i)

let pool_basics () =
  let p = Maglev.Pool.create ~table_size:1021 ~names:(names 3) () in
  check_int "size" 3 (Maglev.Pool.size p);
  check_int "table size" 1021 (Maglev.Pool.table_size p);
  Alcotest.(check string) "name" "server-1" (Maglev.Pool.name p 1);
  Alcotest.(check (float 1e-9)) "uniform weight" (1.0 /. 3.0) (Maglev.Pool.weight p 0)

let pool_lookup_in_range () =
  let p = Maglev.Pool.create ~table_size:1021 ~names:(names 3) () in
  for h = 0 to 10_000 do
    let b = Maglev.Pool.lookup p h in
    if b < 0 || b > 2 then Alcotest.failf "lookup out of range: %d" b
  done

let pool_lookup_consistent () =
  let p = Maglev.Pool.create ~table_size:1021 ~names:(names 3) () in
  check_int "same hash, same backend" (Maglev.Pool.lookup p 12345)
    (Maglev.Pool.lookup p 12345)

let pool_rebuild_applies_weights () =
  let p = Maglev.Pool.create ~table_size:4099 ~names:(names 2) () in
  Maglev.Pool.set_weight p 0 0.9;
  Maglev.Pool.set_weight p 1 0.1;
  (* Not yet applied. *)
  let before = Maglev.Pool.slot_shares p in
  check_bool "staged only" true (Float.abs (before.(0) -. 0.5) < 0.02);
  Maglev.Pool.rebuild p;
  let after = Maglev.Pool.slot_shares p in
  check_bool "applied" true (Float.abs (after.(0) -. 0.9) < 0.02);
  check_int "rebuild counted" 1 (Maglev.Pool.rebuilds p);
  check_bool "disruption accumulated" true (Maglev.Pool.total_disruption p > 0.0)

let pool_set_weights_vector () =
  let p = Maglev.Pool.create ~table_size:1021 ~names:(names 3) () in
  Maglev.Pool.set_weights p [| 0.2; 0.3; 0.5 |];
  Maglev.Pool.rebuild p;
  let shares = Maglev.Pool.slot_shares p in
  check_bool "vector applied" true (Float.abs (shares.(2) -. 0.5) < 0.03);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Pool.set_weights: length mismatch") (fun () ->
      Maglev.Pool.set_weights p [| 1.0 |])

let pool_errors () =
  Alcotest.check_raises "no backends"
    (Invalid_argument "Pool.create: no backends") (fun () ->
      ignore (Maglev.Pool.create ~names:[||] ()));
  Alcotest.check_raises "composite size"
    (Invalid_argument "Pool.create: table_size must be prime") (fun () ->
      ignore (Maglev.Pool.create ~table_size:4096 ~names:(names 2) ()));
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Pool.create: duplicate backend \"a\"") (fun () ->
      ignore (Maglev.Pool.create ~names:[| "a"; "a" |] ()));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Pool.set_weight: bad weight") (fun () ->
      let p = Maglev.Pool.create ~names:(names 2) () in
      Maglev.Pool.set_weight p 0 (-1.0));
  Alcotest.check_raises "NaN weight"
    (Invalid_argument "Pool.set_weight: bad weight") (fun () ->
      let p = Maglev.Pool.create ~names:(names 2) () in
      Maglev.Pool.set_weight p 0 Float.nan);
  (* A rejected rebuild leaves the live table and the counters alone. *)
  let p = Maglev.Pool.create ~table_size:101 ~names:(names 2) () in
  let before = Maglev.Pool.current_table p in
  Maglev.Pool.set_weights p [| 0.0; 0.0 |];
  Alcotest.check_raises "all zero weights"
    (Invalid_argument "Table.populate: all weights <= 0") (fun () ->
      Maglev.Pool.rebuild p);
  check_bool "table kept" true (Maglev.Pool.current_table p = before);
  check_int "not counted" 0 (Maglev.Pool.rebuilds p);
  Alcotest.(check (float 0.0)) "no disruption" 0.0
    (Maglev.Pool.total_disruption p)

(* MD5 of a table, one character per slot owner (n <= 10). *)
let table_md5 table =
  Digest.to_hex
    (Digest.string
       (String.init (Array.length table) (fun s ->
            Char.chr (Char.code '0' + table.(s)))))

let pool_pinned_table () =
  (* Recorded with the closure-per-claim populate loop the kernel
     replaced: the same weights must keep building the same tables. *)
  let ws = [| 0.3; 0.1; 0.05; 0.2; 0.125; 0.075; 0.1; 0.05 |] in
  let p = Maglev.Pool.create ~table_size:65537 ~names:(names 8) () in
  Alcotest.(check string)
    "uniform" "118ba7007cdc430d32559e351f43931b"
    (table_md5 (Maglev.Pool.current_table p));
  Maglev.Pool.set_weights p ws;
  Maglev.Pool.rebuild p;
  Alcotest.(check string)
    "weighted" "27518693f4e84f7b3966bbd311f5cd14"
    (table_md5 (Maglev.Pool.current_table p));
  Alcotest.(check string)
    "populate" "27518693f4e84f7b3966bbd311f5cd14"
    (table_md5
       (Maglev.Table.populate ~size:65537
          ~backends:(Array.mapi (fun i name -> (name, ws.(i))) (names 8))
          ()))

let pool_rebuild_allocation () =
  (* The controller rebuilds a 65537-slot table about every 1 ms; the
     closure-per-claim loop allocated 8 words per slot (524 282 per
     rebuild). The kernel allocates only the boxed disruption sum. *)
  let p = Maglev.Pool.create ~table_size:65537 ~names:(names 8) () in
  let a = Array.init 8 (fun i -> if i = 0 then 1.1 else 1.0) in
  let b = Array.init 8 (fun i -> if i = 7 then 1.1 else 1.0) in
  let worst = ref 0.0 in
  for k = 0 to 4 do
    Maglev.Pool.set_weights p (if k land 1 = 0 then a else b);
    let before = Gc.minor_words () in
    Maglev.Pool.rebuild p;
    let words = Gc.minor_words () -. before in
    (* The first rebuild is the warm-up. *)
    if k > 0 then worst := Float.max !worst words
  done;
  if !worst >= 100.0 then
    Alcotest.failf "a warm rebuild allocated %.0f minor words" !worst

type pool_op = Set of float array | Rebuild

let pp_pool_op ppf = function
  | Set ws -> Fmt.pf ppf "Set %a" pp_weights ws
  | Rebuild -> Fmt.pf ppf "Rebuild"

let pool_ops_arbitrary =
  QCheck.make
    ~print:(fun (size, n, ops) ->
      Fmt.str "size=%d n=%d %a" size n Fmt.(Dump.list pp_pool_op) ops)
    QCheck.Gen.(
      pair (oneofl [ 3; 7; 101; 1021; 4099 ]) (int_range 1 8)
      >>= fun (size, n) ->
      map
        (fun ops -> (size, n, ops))
        (list_size (int_range 1 30)
           (frequency
              [
                (2, map (fun ws -> Set ws) (weights_gen n)); (3, return Rebuild);
              ])))

(* Replays the ops on a pool and on the oracle, which rebuilds from
   scratch and measures each rebuild with [Table.disruption]. *)
let pool_disruption_matches_oracle (size, n, ops) =
  let names = names n in
  let pool = Maglev.Pool.create ~table_size:size ~names () in
  let weights = Array.make n (1.0 /. float_of_int n) in
  let oracle () =
    oracle_populate ~size
      ~backends:(Array.mapi (fun i name -> (name, weights.(i))) names)
  in
  let table = ref (oracle ()) in
  let sum = ref 0.0 in
  let rebuilds = ref 0 in
  let same_outcomes =
    List.for_all
      (function
        | Set ws ->
            Maglev.Pool.set_weights pool ws;
            Array.blit ws 0 weights 0 n;
            true
        | Rebuild ->
            let expected =
              outcome (fun () ->
                  let fresh = oracle () in
                  sum := !sum +. Maglev.Table.disruption !table fresh;
                  table := fresh;
                  incr rebuilds)
            in
            expected = outcome (fun () -> Maglev.Pool.rebuild pool))
      ops
  in
  same_outcomes
  && Int64.equal
       (Int64.bits_of_float !sum)
       (Int64.bits_of_float (Maglev.Pool.total_disruption pool))
  && Maglev.Pool.rebuilds pool = !rebuilds
  && Maglev.Pool.current_table pool = !table

let pool_disruption_qcheck =
  QCheck.Test.make ~count:200
    ~name:"rebuild disruption and count equal the oracle's"
    pool_ops_arbitrary pool_disruption_matches_oracle

let pool_weight_change_preserves_most_lookups =
  QCheck.Test.make ~count:20
    ~name:"a 10% weight shift remaps only a small fraction of hashes"
    QCheck.(int_bound 1_000_000)
    (fun salt ->
      let p = Maglev.Pool.create ~table_size:4099 ~names:(names 4) () in
      let hashes = List.init 2000 (fun i -> Maglev.Hashing.int ~seed:salt i) in
      let before = List.map (Maglev.Pool.lookup p) hashes in
      Maglev.Pool.set_weights p [| 0.15; 0.2833; 0.2833; 0.2833 |];
      Maglev.Pool.rebuild p;
      let after = List.map (Maglev.Pool.lookup p) hashes in
      let changed =
        List.fold_left2
          (fun acc a b -> if a <> b then acc + 1 else acc)
          0 before after
      in
      float_of_int changed /. 2000.0 < 0.3)

let () =
  Alcotest.run "maglev"
    [
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick hash_deterministic;
          Alcotest.test_case "primes" `Quick primes;
        ] );
      ( "permutation",
        [
          Alcotest.test_case "is a permutation" `Quick permutation_is_permutation;
          Alcotest.test_case "wraps" `Quick permutation_wraps;
          Alcotest.test_case "nth pure" `Quick permutation_nth_pure;
          Alcotest.test_case "requires prime" `Quick permutation_requires_prime;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ permutation_qcheck ] );
      ( "table",
        [
          Alcotest.test_case "fills every slot" `Quick table_fills_every_slot;
          Alcotest.test_case "equal shares" `Quick
            table_equal_weights_near_equal_shares;
          Alcotest.test_case "weighted shares" `Quick
            table_weighted_shares_proportional;
          Alcotest.test_case "zero weight" `Quick table_zero_weight_gets_nothing;
          Alcotest.test_case "removal disruption" `Quick
            table_backend_removal_minimal_disruption;
          Alcotest.test_case "weight-change disruption" `Quick
            table_small_weight_change_small_disruption;
          Alcotest.test_case "errors" `Quick table_errors;
          Alcotest.test_case "deterministic" `Quick table_deterministic;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              table_weighted_qcheck;
              table_equals_oracle_qcheck;
              table_equals_oracle_large_qcheck;
            ] );
      ( "pool",
        [
          Alcotest.test_case "basics" `Quick pool_basics;
          Alcotest.test_case "lookup range" `Quick pool_lookup_in_range;
          Alcotest.test_case "lookup consistent" `Quick pool_lookup_consistent;
          Alcotest.test_case "rebuild applies weights" `Quick
            pool_rebuild_applies_weights;
          Alcotest.test_case "set vector" `Quick pool_set_weights_vector;
          Alcotest.test_case "errors" `Quick pool_errors;
          Alcotest.test_case "pinned table" `Quick pool_pinned_table;
          Alcotest.test_case "rebuild allocation" `Quick
            pool_rebuild_allocation;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              pool_weight_change_preserves_most_lookups; pool_disruption_qcheck;
            ] );
    ]
