type t = {
  engine : Des.Engine.t;
  mutable pause_until : Des.Time.t;
  mutable count : int;
}

let none engine = { engine; pause_until = 0; count = 0 }

let periodic engine ~rng ~gap ~duration =
  let t = { engine; pause_until = 0; count = 0 } in
  let rec schedule_next () =
    let g = Des.Time.ns (int_of_float (Stats.Dist.draw gap rng)) in
    Des.Engine.post_after engine ~delay:(Int.max 1 g) (fun () ->
        let d = Des.Time.ns (int_of_float (Stats.Dist.draw duration rng)) in
        t.pause_until <- Des.Engine.now engine + d;
        t.count <- t.count + 1;
        schedule_next ())
  in
  schedule_next ();
  t

let force t ~until =
  if until > t.pause_until then begin
    t.pause_until <- until;
    t.count <- t.count + 1
  end

let clear t = t.pause_until <- Des.Engine.now t.engine

let extra_delay t =
  let now = Des.Engine.now t.engine in
  if t.pause_until > now then t.pause_until - now else 0

let pauses_so_far t = t.count
