(* The perf ledger: one benchmark for every performance claim.

   ledger.exe [--workload W]... [--seed S] [--seconds T] [--trace 0|1]
              [--out FILE]
   ledger.exe --smoke [--benchmark BENCHMARK.json]
   ledger.exe compare PARENT1.json CHANGE1.json [PARENT2.json CHANGE2.json]...

   Each workload gets one discarded warm-up repetition, then 5 timed
   repetitions (with [--seconds T]: as many as fit in T seconds, at
   least 3), with a Gc.compact before each, then one traced repetition.
   The layer micros run once at the end. Without [--trace] every metric
   is printed as [workload metric value unit] with its median,
   quartiles, min, max and repetition count; with [--trace 0] (or 1)
   the last line is one JSON object holding the end-to-end (or
   per-layer) metrics. README.md has the workloads, the metric tables
   and the A/B protocol. *)

let now = Unix.gettimeofday
let trace_dir = "_ledger"

(* --- Repetitions -------------------------------------------------------- *)

type measured = {
  workload : Workloads.t;
  timed : Workloads.rep list;
  setups : float list;  (** Set-up times: the repetitions' and extra ones. *)
  traced : (Workloads.rep * Spans.t) option;
  attempted : int;
  failed : int;
}

(* Timed repetitions continue until there are [min_reps] of them and
   [seconds] have passed. A repetition fails if it raises or if its
   simulated outcome differs from the first repetition's (the warm-up's,
   which for flows-k2 is the 1-shard run). *)
let measure (w : Workloads.t) ~size ~seed ~min_reps ~seconds ~trace =
  let attempted = ref 0 and failed = ref 0 and reference = ref None in
  let attempt label f =
    incr attempted;
    Gc.compact ();
    let fail why =
      incr failed;
      Fmt.epr "ledger: %s %s failed: %s@." w.name label why;
      None
    in
    match f () with
    | exception e -> fail (Printexc.to_string e)
    | (r : Workloads.rep) -> (
        match !reference with
        | None ->
            reference := Some r.digest;
            Some r
        | Some d when String.equal d r.digest -> Some r
        | Some _ -> fail "simulated outcome differs from the first repetition")
  in
  ignore (attempt "warm-up" (fun () -> w.warmup ~size ~seed));
  let t0 = now () in
  let rec timed acc i =
    if i >= min_reps && now () -. t0 >= seconds then List.rev acc
    else
      let r =
        attempt (Fmt.str "repetition %d" (i + 1)) (fun () ->
            w.run ~size ~seed ~spans:None)
      in
      timed (Option.fold ~none:acc ~some:(fun r -> r :: acc) r) (i + 1)
  in
  let timed = timed [] 0 in
  let setups =
    List.map (fun r -> r.Workloads.setup_s) timed @ w.extra_setups ~size ~seed
  in
  let traced =
    if not trace then None
    else
      let sp = Spans.create () in
      Option.map
        (fun r -> (r, sp))
        (attempt "traced run" (fun () -> w.run ~size ~seed ~spans:(Some sp)))
  in
  {
    workload = w;
    timed;
    setups;
    traced;
    attempted = !attempted;
    failed = !failed;
  }

(* --- Metrics of one measured workload ------------------------------------ *)

let e2e_values m =
  let of_reps f = List.map f m.timed in
  [
    ("wall_s", of_reps (fun r -> r.Workloads.wall_s));
    ("setup_s", m.setups);
    ("words_per_flow", of_reps (fun r -> r.Workloads.words_per_flow));
  ]

let micro_values micros =
  List.concat_map
    (fun (m : Micros.micro) ->
      match List.assoc_opt m.name micros with
      | None -> []
      | Some (r : Micros.result) ->
          [
            ( Micros.time_metric m,
              [ (if m.unit_us then r.ns /. 1e3 else r.ns) ] );
            (Micros.words_metric m, [ r.words ]);
          ])
    Micros.all

let layer_values m ~micros =
  let traced =
    match m.traced with
    | None -> []
    | Some (r, _) ->
        let count k = Option.value ~default:0.0 (List.assoc_opt k r.counts) in
        let ns k =
          Option.fold ~none:nan ~some:(fun (x : Micros.result) -> x.ns)
            (List.assoc_opt k micros)
        in
        let untraced =
          Metrics.median (List.map (fun r -> r.Workloads.wall_s) m.timed)
        in
        r.counts
        @ [ ("des.events_per_s", count "des.events" /. r.wall_s) ]
        @ Metrics.attribute ~ns ~count ~rebuild:m.workload.rebuild
            ~core_s:(r.wall_s *. float_of_int m.workload.shards)
        @ [ ("trace.overhead", (r.wall_s /. untraced) -. 1.0) ]
  in
  micro_values micros @ List.map (fun (k, v) -> (k, [ v ])) traced

(* --- Output -------------------------------------------------------------- *)

let unit_of name =
  Option.fold ~none:"-" ~some:(fun s -> s.Metrics.unit) (Metrics.find name)

(* [workload metric value unit], where [value] is the median of the [n]
   repetitions. *)
let metric_line ~workload name values =
  let s = Metrics.summarize values in
  Fmt.str "%-13s %-40s %12.6g %-8s q1=%.6g q3=%.6g min=%.6g max=%.6g n=%d"
    workload name s.median (unit_of name) s.q1 s.q3 s.min s.max s.n

let metric_json name values =
  let s = Metrics.summarize values in
  let unit = unit_of name in
  ( name,
    Json.Obj
      [
        ("unit", Json.Str unit);
        ("median", Json.Num s.median);
        ("q1", Json.Num s.q1);
        ("q3", Json.Num s.q3);
        ("min", Json.Num s.min);
        ("max", Json.Num s.max);
        ("n", Json.Num (float_of_int s.n));
        ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
      ] )

let host () =
  let lines =
    try In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines
    with Sys_error _ -> []
  in
  let field line =
    match String.index_opt line ':' with
    | Some i ->
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
    | None -> ""
  in
  let nproc =
    List.length (List.filter (String.starts_with ~prefix:"processor") lines)
  in
  let cpu =
    match List.find_opt (String.starts_with ~prefix:"model name") lines with
    | Some l -> field l
    | None -> "unknown"
  in
  [
    ("nproc", Json.Num (float_of_int nproc));
    ("domains", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("cpu", Json.Str cpu);
  ]

let write_trace m =
  Option.iter
    (fun (_, sp) ->
      if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
      Spans.write
        ~path:(Filename.concat trace_dir (m.workload.name ^ ".trace.json"))
        ~label:m.workload.name sp)
    m.traced

(* The result of a benchmark run (BENCHMARK.json's command): the last
   stdout line is one JSON object with the run's verdict and one value
   per metric. *)
let print_result_line ms ~trace ~micros =
  let specs = if trace then Metrics.per_layer else Metrics.e2e in
  let values =
    List.concat_map
      (fun m -> if trace then layer_values m ~micros else e2e_values m)
      ms
  in
  let metrics =
    List.filter_map
      (fun (s : Metrics.spec) ->
        match List.assoc_opt s.name values with
        | Some (_ :: _ as vs) when Float.is_finite (Metrics.median vs) ->
            Some
              ( s.name,
                Json.Obj
                  [
                    ("value", Json.Num (Metrics.median vs));
                    ("unit", Json.Str s.unit);
                  ] )
        | _ -> None)
      specs
  in
  let attempted = List.fold_left (fun a m -> a + m.attempted) 0 ms in
  let failed = List.fold_left (fun a m -> a + m.failed) 0 ms in
  let correct = failed = 0 && List.length metrics = List.length specs in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj metrics);
          ]))

let all_values m ~micros =
  e2e_values m
  @ [
      ( "fail_frac",
        [ float_of_int m.failed /. float_of_int (Stdlib.max 1 m.attempted) ] );
    ]
  @ layer_values m ~micros

let ledger_lines ms ~micros =
  List.concat_map
    (fun m ->
      List.filter_map
        (fun (name, values) ->
          if values = [] then None
          else Some (metric_line ~workload:m.workload.name name values))
        (all_values m ~micros))
    ms

let print_ledger ms ~seed ~micros ~out =
  let host = host () in
  Fmt.pr "# host: %s@."
    (String.concat " "
       (List.map (fun (k, v) -> Fmt.str "%s=%s" k (Json.to_string v)) host));
  List.iter print_endline (ledger_lines ms ~micros);
  Option.iter
    (fun path ->
      let workload m =
        ( m.workload.name,
          Json.Obj
            [
              ("attempted", Json.Num (float_of_int m.attempted));
              ("failed", Json.Num (float_of_int m.failed));
              ( "metrics",
                Json.Obj
                  (List.filter_map
                     (fun (name, vs) ->
                       if vs = [] then None else Some (metric_json name vs))
                     (all_values m ~micros)) );
            ] )
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("seed", Json.Num (float_of_int seed));
                    ("host", Json.Obj host);
                    ("workloads", Json.Obj (List.map workload ms));
                  ])
            ^ "\n")))
    out

(* --- compare: the A/B rule ----------------------------------------------- *)

(* Files come in (parent, change) pairs, one pair per alternating run;
   each file gives one median per workload and metric. A metric improves
   only when the change wins at least 9 of every 10 pairs (ties count
   for neither), at least 10 pairs were run, and the medians of the two
   sides differ by more than the interquartile range of the parent's
   values. An end-to-end metric regresses when the change's median is
   worse than the parent's by more than the metric's bound; it is
   unresolved when the parent's own spread is wider than the bound,
   unless every change run beats every parent run. *)
let verdict (spec : Metrics.spec) both =
  let gain a b =
    match spec.better with Metrics.Lower -> a -. b | Higher -> b -. a
  in
  let parent = List.map fst both and change = List.map snd both in
  let n = List.length both in
  let wins = List.length (List.filter (fun (a, b) -> gain a b > 0.0) both) in
  let q1, pm, q3 = Metrics.quartiles parent in
  let cm = Metrics.median change and iqr = q3 -. q1 in
  let all_better =
    List.for_all
      (fun b -> List.for_all (fun a -> gain a b > 0.0) parent)
      change
  in
  let v =
    if n >= 10 && wins * 10 >= 9 * n && gain pm cm > iqr then `Gain
    else
      match spec.bound with
      | Some b when -.gain pm cm > b *. Float.abs pm -> `Regression
      | Some b when iqr > b *. Float.abs pm && not all_better -> `Unresolved
      | Some _ -> `Within_bound
      | None -> if pm = cm then `Same else `Changed
  in
  (v, pm, cm, wins, n, iqr)

let verdict_to_string = function
  | `Gain -> "gain"
  | `Regression -> "REGRESSION"
  | `Unresolved -> "unresolved"
  | `Within_bound -> "within bound"
  | `Same -> "same"
  | `Changed -> "-"

let compare_files files =
  let rec pairs = function
    | p :: c :: rest -> (Json.read_file p, Json.read_file c) :: pairs rest
    | [] -> []
    | [ _ ] -> invalid_arg "compare: files must come in (parent, change) pairs"
  in
  let pairs = pairs files in
  if pairs = [] then invalid_arg "compare: no files";
  let keys = function Json.Obj l -> List.map fst l | _ -> [] in
  let metrics doc workload =
    Json.(member "metrics" (member workload (member "workloads" doc)))
  in
  let median_of doc workload metric =
    Json.(to_num (member "median" (member metric (metrics doc workload))))
  in
  let parent0 = fst (List.hd pairs) in
  let regressions = ref 0 in
  Fmt.pr "%-13s %-40s %14s %14s %8s %7s %12s  %s@." "workload" "metric"
    "parent" "change" "delta" "wins" "parent_iqr" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun metric ->
          let both =
            List.filter_map
              (fun (p, c) ->
                match
                  (median_of p workload metric, median_of c workload metric)
                with
                | Some a, Some b -> Some (a, b)
                | _ -> None)
              pairs
          in
          match Metrics.find metric with
          | Some spec when both <> [] ->
              let v, pm, cm, wins, n, iqr = verdict spec both in
              if v = `Regression then incr regressions;
              let delta =
                if pm = 0.0 then 0.0 else 100.0 *. (cm -. pm) /. Float.abs pm
              in
              Fmt.pr "%-13s %-40s %14.6g %14.6g %+7.2f%% %3d/%-3d %12.4g  %s@."
                workload metric pm cm delta wins n iqr (verdict_to_string v)
          | _ -> ())
        (keys (metrics parent0 workload)))
    (keys (Json.member "workloads" parent0));
  if !regressions > 0 then exit 1

(* --- smoke: the runtest rule --------------------------------------------- *)

(* Counts that depend on the heap's history or on host speed, and so may
   differ between two runs in one process. *)
let repeatable name =
  not
    (String.starts_with ~prefix:"gc." name
    || List.mem name [ "des.events_per_s"; "des.shard.stall_s" ])

(* Every BENCHMARK.json metric must be printed for every workload, with
   the ledger's unit and direction, and every workload must exist. *)
let check_benchmark ~report ~printed path =
  let problem fmt = Fmt.kstr report fmt in
  let doc = Json.read_file path in
  let check key (specs : Metrics.spec list) entry =
    let field k = Json.(to_str (member k entry)) in
    match field "name" with
    | None -> problem "%s: an entry has no name" key
    | Some name -> (
        List.iter
          (fun (w : Workloads.t) ->
            if not (List.mem (w.name, name) printed) then
              problem "%s: %s is not printed for %s" key name w.name)
          Workloads.all;
        match List.find_opt (fun (s : Metrics.spec) -> s.name = name) specs with
        | None -> problem "%s: %s is not a ledger metric of this kind" key name
        | Some s ->
            if field "unit" <> Some s.unit then
              problem "%s: %s has unit %s in the ledger" key name s.unit;
            if field "better" <> Some (Metrics.better_to_string s.better) then
              problem "%s: %s has the other direction in the ledger" key name)
  in
  let entries key = Json.to_list (Json.member key doc) in
  List.iter (check "end_to_end" Metrics.e2e) (entries "end_to_end");
  List.iter (check "per_layer" Metrics.per_layer) (entries "per_layer");
  List.iter
    (fun entry ->
      match Json.(to_str (member "name" entry)) with
      | Some name when Workloads.find name <> None -> ()
      | Some name -> problem "workloads: %s is not a ledger workload" name
      | None -> problem "workloads: an entry has no name")
    (entries "workloads")

let smoke ~benchmark =
  let problems = ref [] in
  let report s = problems := s :: !problems in
  let problem fmt = Fmt.kstr report fmt in
  let pass () =
    List.map
      (fun w ->
        measure w ~size:Workloads.Smoke ~seed:0 ~min_reps:2 ~seconds:0.0
          ~trace:true)
      Workloads.all
  in
  let first = pass () and second = pass () in
  let micros = Micros.run ~quota:0.01 in
  List.iter2
    (fun a b ->
      let name = a.workload.name in
      if a.failed + b.failed > 0 then
        problem "%s: %d of %d repetitions failed their correctness check" name
          (a.failed + b.failed) (a.attempted + b.attempted);
      match (a.traced, b.traced) with
      | Some (ra, _), Some (rb, _) ->
          if ra.digest <> rb.digest then
            problem "%s: the two passes simulated different outcomes" name;
          List.iter
            (fun (k, v) ->
              if repeatable k && List.assoc_opt k rb.counts <> Some v then
                problem "%s: count %s differs between the passes" name k)
            ra.counts
      | _ -> problem "%s: a traced run failed" name)
    first second;
  (* (workload, metric) of every line the ledger prints for a pass. *)
  let printed =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | workload :: name :: _ -> Some (workload, name)
        | _ -> None)
      (ledger_lines second ~micros)
  in
  Option.iter (check_benchmark ~report ~printed) benchmark;
  match List.rev !problems with
  | [] ->
      Fmt.pr "smoke: ok (%d workloads, %d metric lines, counts repeat)@."
        (List.length second) (List.length printed)
  | ps ->
      List.iter (Fmt.epr "smoke: %s@.") ps;
      exit 1

(* --- Command line -------------------------------------------------------- *)

let usage () =
  Fmt.epr
    "usage: ledger.exe [--workload W]... [--seed S] [--seconds T] [--trace \
     0|1] [--out FILE]@.       ledger.exe --smoke [--benchmark \
     BENCHMARK.json]@.       ledger.exe compare PARENT.json CHANGE.json...@.\
     workloads: %s@."
    (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: files -> (
      try compare_files files with
      | Invalid_argument msg | Sys_error msg | Json.Parse_error msg ->
          Fmt.epr "ledger: %s@." msg;
          exit 2)
  | args ->
      let workloads = ref [] and seed = ref 0 and seconds = ref None in
      let trace = ref None and out = ref None and smoke_run = ref false in
      let benchmark = ref None in
      let int_arg s =
        match int_of_string_opt s with Some v -> v | None -> usage ()
      in
      let rec parse = function
        | "--workload" :: w :: rest ->
            (match Workloads.find w with
            | Some w -> workloads := w :: !workloads
            | None -> usage ());
            parse rest
        | "--seed" :: s :: rest ->
            seed := int_arg s;
            if !seed < 0 then usage ();
            parse rest
        | "--seconds" :: s :: rest ->
            seconds := Some (float_of_int (int_arg s));
            parse rest
        | "--trace" :: ("0" | "1" as t) :: rest ->
            trace := Some (t = "1");
            parse rest
        | "--out" :: f :: rest ->
            out := Some f;
            parse rest
        | "--smoke" :: rest ->
            smoke_run := true;
            parse rest
        | "--benchmark" :: f :: rest ->
            benchmark := Some f;
            parse rest
        | [] -> ()
        | _ -> usage ()
      in
      parse args;
      if !smoke_run then smoke ~benchmark:!benchmark
      else
        let workloads =
          if !workloads = [] then Workloads.all else List.rev !workloads
        in
        (* A result line holds one workload's metrics. *)
        if !trace <> None && List.length workloads <> 1 then usage ();
        (* A [--trace 0] run needs no traced repetition and no
           micros; everything else measures both. *)
        let layers = !trace <> Some false in
        (* The full ledger times 5 repetitions; a [--seconds] run times as
           many as fit in its seconds, at least 3. *)
        let min_reps, seconds =
          match !seconds with Some s -> (3, s) | None -> (5, 0.0)
        in
        let ms =
          List.map
            (fun w ->
              measure w ~size:Workloads.Full ~seed:!seed ~min_reps ~seconds
                ~trace:layers)
            workloads
        in
        List.iter write_trace ms;
        let micros =
          if layers then Micros.run ~quota:(if !trace = None then 0.5 else 0.25)
          else []
        in
        match !trace with
        | Some trace -> print_result_line ms ~trace ~micros
        | None -> print_ledger ms ~seed:!seed ~micros ~out:!out
