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
  table : Histogram.t Tbl.t;
  mutable last_idx : int; (* [min_int] before the first record *)
  mutable last : Histogram.t;
}

(* [last] before the first record: the smallest histogram, since no
   bucket index equals [min_int] and nothing is ever recorded into it. *)
let unused = Histogram.create ~sub_bucket_bits:1 ()

let create ~bucket =
  if bucket <= 0 then invalid_arg "Timeseries.create: bucket";
  { bucket; table = Tbl.create 64; last_idx = min_int; last = unused }

let record t ~at v =
  let idx = at / t.bucket in
  if idx <> t.last_idx then begin
    let hist =
      match Tbl.find t.table idx with
      | hist -> hist
      | exception Not_found ->
          let hist = Histogram.create () in
          Tbl.add t.table idx hist;
          hist
    in
    t.last_idx <- idx;
    t.last <- hist
  end;
  Histogram.record t.last v

type row = {
  t_start : Des.Time.t;
  count : int;
  mean : float;
  quantile : int;
}

let rows t ~q =
  Tbl.fold (fun idx hist acc -> (idx, hist) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (idx, hist) ->
         {
           t_start = idx * t.bucket;
           count = Histogram.count hist;
           mean = Histogram.mean hist;
           quantile = Histogram.quantile hist q;
         })
