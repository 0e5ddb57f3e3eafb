type t = {
  delta : Des.Time.t;
  mutable time_last_batch : Des.Time.t;
  mutable time_last_pkt : Des.Time.t;
  mutable samples : int;
}

let create ~delta ~now =
  if delta <= 0 then invalid_arg "Fixed_timeout.create: delta";
  { delta; time_last_batch = now; time_last_pkt = now; samples = 0 }


let on_packet t ~now =
  let t_lb =
    if now - t.time_last_pkt > t.delta then begin
      (* New batch: the gap from the previous batch head is a sample. *)
      let sample = now - t.time_last_batch in
      t.time_last_batch <- now;
      t.samples <- t.samples + 1;
      Some sample
    end
    else None
  in
  t.time_last_pkt <- now;
  t_lb

let samples_produced t = t.samples
