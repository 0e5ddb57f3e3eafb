let in_window samples ~lo ~hi =
  List.filter_map
    (fun { Bulk_flow.at; value } ->
      if at >= lo && at < hi then Some value else None)
    samples

let percentile values ~q =
  match List.sort Int.compare values with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let rank =
        Stdlib.min (n - 1)
          (Stdlib.max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))
      in
      float_of_int (List.nth sorted rank)

let median values = percentile values ~q:0.5

let median_relative_error ~estimates ~truth =
  if truth <= 0.0 then nan
  else begin
    match estimates with
    | [] -> nan
    | _ -> Float.abs (median estimates -. truth) /. truth
  end

let median_float values =
  match List.sort Float.compare values with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

let windowed_quantile_us rows ~lo ~hi =
  rows
  |> List.filter_map (fun (r : Stats.Timeseries.row) ->
         if r.t_start >= lo && r.t_start < hi then
           Some (float_of_int r.quantile /. 1e3)
         else None)
  |> median_float
