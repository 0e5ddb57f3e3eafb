type entry = {
  ewma : Stats.Ewma.t;
  ring : int array; (* last [window] samples, circular; unused if empty *)
  mutable ring_len : int;
  mutable ring_idx : int;
  mutable count : int;
  mutable last_at : Des.Time.t;
}

type t = { window : int; entries : entry array }

let create ~n ~ewma_alpha ?(window = 0) () =
  if window < 0 then invalid_arg "Server_stats.create: window";
  {
    window;
    entries =
      Array.init n (fun _ ->
          {
            ewma = Stats.Ewma.create ~alpha:ewma_alpha;
            ring = Array.make (Stdlib.max 1 window) 0;
            ring_len = 0;
            ring_idx = 0;
            count = 0;
            last_at = 0;
          });
  }

let record t ~server ~sample ~at =
  let e = t.entries.(server) in
  Stats.Ewma.add e.ewma (float_of_int sample);
  if t.window > 0 then begin
    e.ring.(e.ring_idx) <- sample;
    e.ring_idx <- (e.ring_idx + 1) mod t.window;
    if e.ring_len < t.window then e.ring_len <- e.ring_len + 1
  end;
  e.count <- e.count + 1;
  e.last_at <- at

let window_median e =
  let values = Array.sub e.ring 0 e.ring_len in
  Array.sort Int.compare values;
  float_of_int values.(e.ring_len / 2)

let estimate t i =
  let e = t.entries.(i) in
  if e.count = 0 then None
  else if t.window > 0 then Some (window_median e)
  else Some (Stats.Ewma.value e.ewma)

let sample_count t i = t.entries.(i).count

let last_sample_at t i =
  let e = t.entries.(i) in
  if e.count = 0 then None else Some e.last_at
