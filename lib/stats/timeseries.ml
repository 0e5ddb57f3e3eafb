(* A bucket starts as a bare scalar and upgrades to a histogram on its
   second observation. Metric snapshotters record exactly one reading
   per metric per interval — with an eager histogram each of those
   buckets carried a ~2k-word counts array to hold a single sample, so
   retained memory grew at O(metrics x duration) for the life of the
   run (the dominant "leak" the soak battery flushed out). *)
type cell = Single of int | Hist of Histogram.t

(* [record] runs once per response. [Int.equal] keys, not the generic
   table's [compare_val]; the hash (and so every bucket) is the same. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Observations arrive in time order, so [record] keeps the bucket it
   touched last and probes the table only when a bucket ends. *)
type t = {
  bucket : Des.Time.t;
  table : cell ref Tbl.t;
  mutable last_idx : int; (* [min_int] before the first record *)
  mutable last : cell ref;
}

let create ~bucket =
  if bucket <= 0 then invalid_arg "Timeseries.create: bucket";
  { bucket; table = Tbl.create 64; last_idx = min_int; last = ref (Single 0) }

let add cell v =
  match !cell with
  | Single v0 ->
      let h = Histogram.create () in
      Histogram.record h v0;
      Histogram.record h v;
      cell := Hist h
  | Hist h -> Histogram.record h v

let record t ~at v =
  let idx = at / t.bucket in
  if idx = t.last_idx then add t.last v
  else begin
    let cell =
      match Tbl.find t.table idx with
      | cell ->
          add cell v;
          cell
      | exception Not_found ->
          let cell = ref (Single v) in
          Tbl.add t.table idx cell;
          cell
    in
    t.last_idx <- idx;
    t.last <- cell
  end

type row = {
  t_start : Des.Time.t;
  count : int;
  mean : float;
  quantile : int;
}

let rows t ~q =
  Tbl.fold (fun idx cell acc -> (idx, cell) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (idx, cell) ->
         let t_start = idx * t.bucket in
         let hist =
           (* Render single-sample buckets through a scratch histogram so
              rows are bit-identical to the eager representation
              (quantiles are bucket-rounded either way). *)
           match !cell with
           | Hist hist -> hist
           | Single v ->
               let h = Histogram.create () in
               Histogram.record h v;
               h
         in
         {
           t_start;
           count = Histogram.count hist;
           mean = Histogram.mean hist;
           quantile = Histogram.quantile hist q;
         })
