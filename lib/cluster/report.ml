let table ~headers rows =
  let ncols = List.length headers in
  let norm row =
    let len = List.length row in
    if len >= ncols then row
    else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map norm rows in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- Stdlib.max widths.(i) (String.length cell))
      row
  in
  measure headers;
  List.iter measure rows;
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun i cell -> Fmt.str "%-*s" widths.(i) cell)
         row)
  in
  let rule =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n"
    ((render_row headers :: rule :: List.map render_row rows) @ [ "" ])

let ns v =
  let a = Float.abs v in
  if a < 1e3 then Fmt.str "%.0fns" v
  else if a < 1e6 then Fmt.str "%.1fus" (v /. 1e3)
  else if a < 1e9 then Fmt.str "%.3fms" (v /. 1e6)
  else Fmt.str "%.3fs" (v /. 1e9)

let pct f = Fmt.str "%.1f%%" (100.0 *. f)
let opt_ms = function None -> "-" | Some ms -> Fmt.str "%.1fms" ms
let nan_us us = if Float.is_nan us then "-" else Fmt.str "%.1fus" us

let registry reg =
  let fmt_value metric v =
    if Float.is_nan v then "-"
    else if Filename.check_suffix metric "_ns" then ns v
    else if Float.is_integer v then Fmt.str "%.0f" v
    else Fmt.str "%.3f" v
  in
  let rows =
    List.map
      (fun { Telemetry.Registry.metric; index; value } ->
        [
          metric;
          (match index with Some i -> string_of_int i | None -> "");
          fmt_value metric value;
        ])
      (Telemetry.Registry.read reg)
  in
  table ~headers:[ "metric"; "idx"; "value" ] rows

let section title =
  let bar = String.make (String.length title + 8) '=' in
  Fmt.str "%s\n=== %s ===\n%s" bar title bar

let failed tripwires =
  List.filter_map
    (fun (name, holds) -> if holds then None else Some name)
    tripwires
