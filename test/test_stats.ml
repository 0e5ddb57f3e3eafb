(* Tests for the streaming-statistics library. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

(* --- Ewma --------------------------------------------------------------- *)

let ewma_first_sample () =
  let e = Stats.Ewma.create ~alpha:0.5 in
  check_bool "uninitialized" false (Stats.Ewma.initialized e);
  Stats.Ewma.add e 10.0;
  checkf 1e-9 "first sample initialises" 10.0 (Stats.Ewma.value e)

let ewma_smoothing () =
  let e = Stats.Ewma.create ~alpha:0.5 in
  Stats.Ewma.add e 10.0;
  Stats.Ewma.add e 20.0;
  checkf 1e-9 "10 + 0.5*(20-10)" 15.0 (Stats.Ewma.value e);
  Stats.Ewma.add e 15.0;
  checkf 1e-9 "15 + 0.5*0" 15.0 (Stats.Ewma.value e);
  check_int "count" 3 (Stats.Ewma.count e)

let ewma_reset () =
  let e = Stats.Ewma.create ~alpha:0.2 in
  Stats.Ewma.add e 5.0;
  Stats.Ewma.reset e;
  check_bool "reset" false (Stats.Ewma.initialized e)

let ewma_bad_alpha () =
  Alcotest.check_raises "alpha 0" (Invalid_argument "Ewma.create: alpha")
    (fun () -> ignore (Stats.Ewma.create ~alpha:0.0));
  Alcotest.check_raises "alpha > 1" (Invalid_argument "Ewma.create: alpha")
    (fun () -> ignore (Stats.Ewma.create ~alpha:1.5))

let ewma_converges () =
  let e = Stats.Ewma.create ~alpha:0.3 in
  for _ = 1 to 100 do
    Stats.Ewma.add e 42.0
  done;
  checkf 1e-6 "converges to constant input" 42.0 (Stats.Ewma.value e)

(* --- Histogram ---------------------------------------------------------- *)

let hist_small_values_exact () =
  (* Values below 2*sub_buckets (64) are stored exactly. *)
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.record h) [ 0; 1; 5; 17; 63 ];
  check_int "count" 5 (Stats.Histogram.count h);
  check_int "min" 0 (Stats.Histogram.min_value h);
  check_int "max" 63 (Stats.Histogram.max_value h);
  check_int "q0" 0 (Stats.Histogram.quantile h 0.0);
  check_int "q1" 63 (Stats.Histogram.quantile h 1.0);
  check_int "median" 5 (Stats.Histogram.quantile h 0.5)

let hist_mean_exact () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.record h) [ 1_000_000; 2_000_000; 6_000_000 ];
  checkf 1e-9 "mean is exact regardless of buckets" 3_000_000.0
    (Stats.Histogram.mean h)

let hist_negative_rejected () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Histogram.record: negative value") (fun () ->
      Stats.Histogram.record h (-1))

(* The name stays short enough for alcotest's 80-column line to print it
   uncut, so its id does not shift when a group name changes width; the
   reference is the exact rank quantile of the sorted sample. *)
let hist_quantile_relative_error =
  QCheck.Test.make ~count:100
    ~name:"histogram quantiles within ~3.2% of"
    QCheck.(list_of_size Gen.(int_range 10 400) (int_bound 1_000_000_000))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.record h) xs;
      let sorted = List.sort Int.compare xs in
      let n = List.length sorted in
      List.for_all
        (fun q ->
          let exact =
            List.nth sorted
              (Stdlib.min (n - 1)
                 (Stdlib.max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))
          in
          let est = Stats.Histogram.quantile h q in
          (* Bucket width is <= 1/32 of the magnitude: allow 1/16 slack
             plus the rank-vs-interpolation wiggle of one bucket. *)
          Float.abs (float_of_int (est - exact))
          <= (float_of_int exact /. 16.0) +. 2.0)
        [ 0.5; 0.9; 0.99 ])

let hist_clear () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h 5;
  Stats.Histogram.clear h;
  check_int "cleared" 0 (Stats.Histogram.count h);
  check_int "quantile on empty" 0 (Stats.Histogram.quantile h 0.5)

let hist_fold_buckets () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.record h) [ 3; 3; 100_000 ];
  let total, buckets =
    Stats.Histogram.fold_buckets h ~init:(0, 0)
      ~f:(fun (total, buckets) ~lo ~hi ~count ->
        check_bool "lo <= hi" true (lo <= hi);
        (total + count, buckets + 1))
  in
  check_int "fold sees every observation" 3 total;
  check_int "two distinct buckets" 2 buckets

let hist_bucket_bounds_contain =
  QCheck.Test.make ~count:300 ~name:"value lands in a bucket containing it"
    QCheck.(int_bound 4_000_000_000)
    (fun v ->
      let h = Stats.Histogram.create () in
      Stats.Histogram.record h v;
      Stats.Histogram.fold_buckets h ~init:true ~f:(fun acc ~lo ~hi ~count ->
          acc && count = 1 && lo <= v && v <= hi))

(* --- Dist --------------------------------------------------------------- *)

let dist_constant () =
  let rng = Des.Rng.create ~seed:5 in
  checkf 1e-9 "constant draw" 42.0 (Stats.Dist.draw (Stats.Dist.Constant 42.0) rng);
  checkf 1e-9 "constant mean" 42.0 (Stats.Dist.mean (Stats.Dist.Constant 42.0))

let dist_means () =
  checkf 1e-9 "uniform" 15.0
    (Stats.Dist.mean (Stats.Dist.Uniform { lo = 10.0; hi = 20.0 }));
  checkf 1e-9 "exponential" 9.0
    (Stats.Dist.mean (Stats.Dist.Exponential { mean = 9.0 }));
  checkf 1e-9 "pareto" 20.0
    (Stats.Dist.mean (Stats.Dist.Pareto { shape = 2.0; scale = 10.0 }));
  check_bool "pareto heavy tail mean infinite" true
    (Stats.Dist.mean (Stats.Dist.Pareto { shape = 0.9; scale = 1.0 })
    = infinity);
  checkf 1e-9 "shifted" 14.0
    (Stats.Dist.mean
       (Stats.Dist.Shifted { base = Stats.Dist.Constant 4.0; offset = 10.0 }));
  checkf 1e-9 "bimodal"
    ((0.9 *. 10.0) +. (0.1 *. 100.0))
    (Stats.Dist.mean
       (Stats.Dist.Bimodal
          {
            p_slow = 0.1;
            fast = Stats.Dist.Constant 10.0;
            slow = Stats.Dist.Constant 100.0;
          }))

let dist_draw_matches_mean () =
  let rng = Des.Rng.create ~seed:6 in
  let check_dist name dist =
    let n = 30_000 in
    let sum = ref 0.0 in
    for _ = 1 to n do
      sum := !sum +. Stats.Dist.draw dist rng
    done;
    let sample_mean = !sum /. float_of_int n in
    let true_mean = Stats.Dist.mean dist in
    check_bool name true
      (Float.abs (sample_mean -. true_mean) < 0.05 *. true_mean)
  in
  check_dist "uniform" (Stats.Dist.Uniform { lo = 5.0; hi = 15.0 });
  check_dist "exponential" (Stats.Dist.Exponential { mean = 70.0 });
  check_dist "lognormal" (Stats.Dist.Lognormal { mu = 3.0; sigma = 0.5 });
  check_dist "bimodal"
    (Stats.Dist.Bimodal
       {
         p_slow = 0.2;
         fast = Stats.Dist.Constant 10.0;
         slow = Stats.Dist.Constant 200.0;
       })

let dist_non_negative =
  QCheck.Test.make ~count:200 ~name:"draws are clamped non-negative"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Des.Rng.create ~seed in
      let d =
        Stats.Dist.Shifted
          { base = Stats.Dist.Exponential { mean = 10.0 }; offset = -15.0 }
      in
      Stats.Dist.draw d rng >= 0.0)

let dist_pp () =
  Alcotest.(check string)
    "pp exp" "exp(mean=50)"
    (Fmt.str "%a" Stats.Dist.pp (Stats.Dist.Exponential { mean = 50.0 }))

(* --- Timeseries --------------------------------------------------------- *)

let timeseries_bucketing () =
  let engine = Des.Engine.create () in
  ignore engine;
  let ts = Stats.Timeseries.create ~bucket:(Des.Time.ms 10) in
  Stats.Timeseries.record ts ~at:(Des.Time.ms 1) 100;
  Stats.Timeseries.record ts ~at:(Des.Time.ms 5) 200;
  Stats.Timeseries.record ts ~at:(Des.Time.ms 15) 300;
  Stats.Timeseries.record ts ~at:(Des.Time.ms 35) 400;
  let rows = Stats.Timeseries.rows ts ~q:0.5 in
  check_int "three non-empty buckets" 3 (List.length rows);
  let first = List.hd rows in
  check_int "first bucket start" 0 first.Stats.Timeseries.t_start;
  check_int "first bucket count" 2 first.Stats.Timeseries.count;
  checkf 1e-9 "first bucket mean" 150.0 first.Stats.Timeseries.mean;
  let starts = List.map (fun r -> r.Stats.Timeseries.t_start) rows in
  Alcotest.(check (list int))
    "rows sorted by time"
    [ 0; Des.Time.ms 10; Des.Time.ms 30 ]
    starts

let timeseries_bad_bucket () =
  Alcotest.check_raises "bucket 0" (Invalid_argument "Timeseries.create: bucket")
    (fun () -> ignore (Stats.Timeseries.create ~bucket:0))

let timeseries_quantile_per_bucket () =
  let ts = Stats.Timeseries.create ~bucket:(Des.Time.sec 1) in
  for v = 1 to 100 do
    Stats.Timeseries.record ts ~at:(Des.Time.ms 500) (v * 1000)
  done;
  match Stats.Timeseries.rows ts ~q:0.95 with
  | [ row ] ->
      check_bool "p95 close to 95000" true
        (abs (row.Stats.Timeseries.quantile - 95_000) <= 3_000)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* A stream of (at, v) observations at bucket width 100: mostly
   non-decreasing times that either stay near the current bucket or jump
   past it (leaving one-sample buckets), with an occasional revisit of
   an earlier bucket. *)
let timeseries_stream =
  let open QCheck.Gen in
  let move =
    frequency
      [
        (6, map (fun d -> `Ahead d) (int_bound 20));
        (3, map (fun d -> `Ahead d) (int_range 100 300));
        (1, map (fun f -> `Back f) (float_bound_inclusive 1.0));
      ]
  in
  let stream steps =
    List.fold_left
      (fun (now, acc) (m, v) ->
        match m with
        | `Ahead d -> (now + d, (now + d, v) :: acc)
        | `Back f -> (now, (int_of_float (f *. float_of_int now), v) :: acc))
      (0, []) steps
    |> snd |> List.rev
  in
  QCheck.make
    ~print:QCheck.Print.(list (pair int int))
    (map stream
       (list_size (int_range 1 200) (pair move (int_bound 50_000_000))))

let timeseries_matches_histogram_oracle =
  QCheck.Test.make ~count:300
    ~name:"rows match per-bucket histograms" timeseries_stream
    (fun obs ->
      let bucket = 100 in
      let ts = Stats.Timeseries.create ~bucket in
      List.iter (fun (at, v) -> Stats.Timeseries.record ts ~at v) obs;
      let idxs =
        List.sort_uniq Int.compare (List.map (fun (at, _) -> at / bucket) obs)
      in
      let oracle q =
        List.map
          (fun idx ->
            let h = Stats.Histogram.create () in
            List.iter
              (fun (at, v) ->
                if at / bucket = idx then Stats.Histogram.record h v)
              obs;
            {
              Stats.Timeseries.t_start = idx * bucket;
              count = Stats.Histogram.count h;
              mean = Stats.Histogram.mean h;
              quantile = Stats.Histogram.quantile h q;
            })
          idxs
      in
      List.for_all
        (fun q -> Stats.Timeseries.rows ts ~q = oracle q)
        [ 0.5; 0.95 ])

let () =
  Alcotest.run "stats"
    [
      ( "ewma",
        [
          Alcotest.test_case "first sample" `Quick ewma_first_sample;
          Alcotest.test_case "smoothing" `Quick ewma_smoothing;
          Alcotest.test_case "reset" `Quick ewma_reset;
          Alcotest.test_case "bad alpha" `Quick ewma_bad_alpha;
          Alcotest.test_case "converges" `Quick ewma_converges;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "small values exact" `Quick hist_small_values_exact;
          Alcotest.test_case "mean exact" `Quick hist_mean_exact;
          Alcotest.test_case "negative rejected" `Quick hist_negative_rejected;
          Alcotest.test_case "clear" `Quick hist_clear;
          Alcotest.test_case "fold buckets" `Quick hist_fold_buckets;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ hist_quantile_relative_error; hist_bucket_bounds_contain ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick dist_constant;
          Alcotest.test_case "analytic means" `Quick dist_means;
          Alcotest.test_case "draws match means" `Quick dist_draw_matches_mean;
          Alcotest.test_case "pp" `Quick dist_pp;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ dist_non_negative ] );
      ( "timeseries",
        [
          Alcotest.test_case "bucketing" `Quick timeseries_bucketing;
          Alcotest.test_case "bad bucket" `Quick timeseries_bad_bucket;
          Alcotest.test_case "per-bucket quantile" `Quick
            timeseries_quantile_per_bucket;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ timeseries_matches_histogram_oracle ] );
    ]
