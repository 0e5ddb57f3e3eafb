(* Golden regression: the Fig 2 summary tables, a compressed Fig 3 CSV,
   the flows churn CSV and the churn faults CSV must render byte-exactly
   as the checked-in expected files. Any change to the estimator, the
   TCP model, the DES engine, the network layer or the report renderer
   that moves a single cell shows up as a diff here. *)

(* Under [dune runtest] the cwd is the test directory and the (deps ...)
   stanza stages the golden files there; under [dune exec] the cwd is the
   project root. Accept either. *)
let read_file name =
  let path =
    if Sys.file_exists name then name else Filename.concat "test" name
  in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let result = lazy (Cluster.Fig2.run ())

let fig2a () =
  let expected = read_file "golden_fig2a.expected" in
  Alcotest.(check string)
    "fig2a summary table (seed 0x5eed2)" expected
    (Cluster.Fig2.summary_table (Lazy.force result) ^ "\n")

let fig2b () =
  let expected = read_file "golden_fig2b.expected" in
  let rendered =
    String.concat ""
      (List.map
         (fun l -> l ^ "\n")
         (Cluster.Fig2.tracking_lines (Lazy.force result)))
  in
  Alcotest.(check string) "fig2b tracking summary (seed 0x5eed2)" expected
    rendered

(* The remap layer must be invisible under its default: an explicit
   [--remap preserve] Fig 3 CSV is byte-identical to the pre-remap
   default, at any --jobs. (Fig 2 exercises no balancer, so the
   fig2a/fig2b goldens above already pin its tables against the remap
   plumbing by construction.) A compressed 6 s timeline keeps the grid
   affordable; byte-equality is scale-free. *)
let fig3_remap_preserve () =
  let run ~explicit ~jobs =
    let base = Cluster.Fig3.default_scenario in
    let scenario =
      if not explicit then base
      else
        {
          base with
          Cluster.Scenario.lb =
            {
              base.Cluster.Scenario.lb with
              Inband.Config.remap =
                (match Inband.Remap.of_string "preserve" with
                | Ok r -> r
                | Error msg -> Alcotest.fail msg);
            };
        }
    in
    Cluster.Csv.fig3_series
      (Cluster.Fig3.run ~scenario ~jobs ~duration:(Des.Time.sec 6)
         ~inject_at:(Des.Time.sec 2) ())
  in
  let reference = run ~explicit:false ~jobs:1 in
  Alcotest.(check string)
    "fig3 CSV (6 s, injection at 2 s)"
    (read_file "golden_fig3.expected")
    reference;
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Fmt.str "fig3 CSV (explicit preserve, jobs=%d)" jobs)
        reference
        (run ~explicit:true ~jobs))
    [ 1; 2 ]

(* The flows churn workload's per-client CSV, which must not depend on
   the shard count either. *)
let flows_csv () =
  let expected = read_file "golden_flows.expected" in
  List.iter
    (fun shards ->
      Alcotest.(check string)
        (Fmt.str "flows CSV (n=8192, shards=%d)" shards)
        expected
        (Cluster.Sharded.flows ~shards ~n:8192 ()).Cluster.Sharded.csv)
    [ 1; 2 ]

(* The default churn run: the only golden with packet loss, whose
   burst drives retransmission and RTO backoff through the TCP
   timers. *)
let churn_csv () =
  Alcotest.(check string)
    "churn faults CSV (default run)"
    (read_file "golden_churn.expected")
    (Cluster.Csv.churn_faults (Cluster.Churn.run ()))

let () =
  Alcotest.run "golden"
    [
      ( "fig2",
        [
          Alcotest.test_case "fig2a table" `Slow fig2a;
          Alcotest.test_case "fig2b tracking" `Slow fig2b;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "remap-preserve CSV byte-identity" `Slow
            fig3_remap_preserve;
        ] );
      ("flows", [ Alcotest.test_case "flows CSV" `Slow flows_csv ]);
      ("churn", [ Alcotest.test_case "churn CSV" `Slow churn_csv ]);
    ]
