type counter = { mutable count : int }

type gauge_body = Pushed of { mutable v : float } | Polled of (unit -> float)
type gauge = { mutable body : gauge_body }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Stats.Histogram.t

type key = { name : string; idx : int option }

type t = {
  table : (key, metric) Hashtbl.t;
  mutable rev_order : (key * metric) list;
}

module Counter = struct
  let incr c = c.count <- c.count + 1

  let add c n =
    if n < 0 then invalid_arg "Telemetry.Counter.add: negative";
    c.count <- c.count + n

  let value c = c.count
end

module Gauge = struct
  let set g v =
    match g.body with
    | Pushed p -> p.v <- v
    | Polled _ -> invalid_arg "Telemetry.Gauge.set: polled gauge"

  let read g = match g.body with Pushed p -> p.v | Polled f -> f ()
end

let create () = { table = Hashtbl.create 64; rev_order = [] }

let pp_key ppf k =
  match k.idx with
  | None -> Fmt.string ppf k.name
  | Some i -> Fmt.pf ppf "%s[%d]" k.name i

let register t ?index name metric =
  let key = { name; idx = index } in
  if Hashtbl.mem t.table key then
    invalid_arg (Fmt.str "Telemetry.Registry: duplicate metric %a" pp_key key);
  Hashtbl.add t.table key metric;
  t.rev_order <- (key, metric) :: t.rev_order

let counter t ?index name =
  let c = { count = 0 } in
  register t ?index name (Counter c);
  c

let gauge t ?index name =
  let g = { body = Pushed { v = Float.nan } } in
  register t ?index name (Gauge g);
  g

let gauge_fn t ?index name f = register t ?index name (Gauge { body = Polled f })

let histogram t ?index name =
  let h = Stats.Histogram.create () in
  register t ?index name (Histogram h);
  h

let attach_histogram t ?index name h = register t ?index name (Histogram h)
let find t ?index name = Hashtbl.find_opt t.table { name; idx = index }

let find_histogram t ?index name =
  match find t ?index name with Some (Histogram h) -> Some h | _ -> None

let mem t ?index name = Hashtbl.mem t.table { name; idx = index }

let value t ?index name =
  match find t ?index name with
  | Some (Counter c) -> Some (float_of_int c.count)
  | Some (Gauge g) -> Some (Gauge.read g)
  | Some (Histogram _) | None -> None

type sample = { metric : string; index : int option; value : float }

let read t =
  List.fold_left
    (fun acc (key, metric) ->
      let one ?(suffix = "") value =
        { metric = key.name ^ suffix; index = key.idx; value }
      in
      match metric with
      | Counter c -> one (float_of_int c.count) :: acc
      | Gauge g -> one (Gauge.read g) :: acc
      | Histogram h ->
          one ~suffix:".count" (float_of_int (Stats.Histogram.count h))
          :: one ~suffix:".mean_ns" (Stats.Histogram.mean h)
          :: one ~suffix:".p95_ns"
               (float_of_int (Stats.Histogram.quantile h 0.95))
          :: acc)
    [] t.rev_order
