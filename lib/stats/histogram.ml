type t = {
  sub_bucket_bits : int;
  sub_buckets : int; (* 2^sub_bucket_bits *)
  mutable counts : int array;
  mutable total : int;
  mutable sum : float;
  mutable min_v : int;
  mutable max_v : int;
}

let create ?(sub_bucket_bits = 5) () =
  if sub_bucket_bits < 1 || sub_bucket_bits > 16 then
    invalid_arg "Histogram.create: sub_bucket_bits";
  let sub_buckets = 1 lsl sub_bucket_bits in
  (* One linear segment for values < 2*sub_buckets, then one segment of
     [sub_buckets] buckets per additional octave, up to 62-bit values. *)
  let octaves = 64 in
  {
    sub_bucket_bits;
    sub_buckets;
    counts = Array.make ((octaves + 2) * sub_buckets) 0;
    total = 0;
    sum = 0.0;
    min_v = max_int;
    max_v = 0;
  }

(* Index layout: values in [0, 2*sub_buckets) map linearly to indices
   [0, 2*sub_buckets). A value v >= 2*sub_buckets with top bit position p
   (so v in [2^p, 2^(p+1))) maps into segment p with sub-index
   (v >> (p - sub_bucket_bits)) - sub_buckets in [0, sub_buckets). *)
let index t v =
  if v < 2 * t.sub_buckets then v
  else begin
    let p =
      (* position of the highest set bit, by successive halving — six
         constant steps instead of a scan down from bit 62 (values are
         latencies in ns, so the top bit is usually around 16-32 and a
         downward scan burned ~40 iterations per record) *)
      let p = ref 0 and v = ref v in
      if !v lsr 32 <> 0 then begin p := !p + 32; v := !v lsr 32 end;
      if !v lsr 16 <> 0 then begin p := !p + 16; v := !v lsr 16 end;
      if !v lsr 8 <> 0 then begin p := !p + 8; v := !v lsr 8 end;
      if !v lsr 4 <> 0 then begin p := !p + 4; v := !v lsr 4 end;
      if !v lsr 2 <> 0 then begin p := !p + 2; v := !v lsr 2 end;
      if !v lsr 1 <> 0 then incr p;
      !p
    in
    let sub = (v lsr (p - t.sub_bucket_bits)) - t.sub_buckets in
    ((p - t.sub_bucket_bits) * t.sub_buckets) + t.sub_buckets + sub
  end

(* Inverse of [index]: inclusive bounds of bucket [i]. *)
let bucket_bounds t i =
  if i < 2 * t.sub_buckets then (i, i)
  else begin
    let seg = (i - t.sub_buckets) / t.sub_buckets in
    let sub = (i - t.sub_buckets) mod t.sub_buckets in
    let p = seg + t.sub_bucket_bits in
    let lo = (t.sub_buckets + sub) lsl (p - t.sub_bucket_bits) in
    let width = 1 lsl (p - t.sub_bucket_bits) in
    (lo, lo + width - 1)
  end

let record t v =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum +. float_of_int v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.total = 0 then nan else t.sum /. float_of_int t.total

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile";
  if t.total = 0 then 0
  else begin
    let target =
      Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.total)))
    in
    let n = Array.length t.counts in
    let rec walk i acc =
      if i >= n then t.max_v
      else begin
        let acc = acc + t.counts.(i) in
        if acc >= target then begin
          let lo, hi = bucket_bounds t i in
          (* Clamp to the exact extrema so q=0/q=1 are exact. *)
          Stdlib.min t.max_v (Stdlib.max t.min_v ((lo + hi) / 2))
        end
        else walk (i + 1) acc
      end
    in
    walk 0 0
  end

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.sum <- 0.0;
  t.min_v <- max_int;
  t.max_v <- 0

let fold_buckets t ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo, hi = bucket_bounds t i in
        acc := f !acc ~lo ~hi ~count:c
      end)
    t.counts;
  !acc
