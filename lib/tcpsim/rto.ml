type t = {
  min_rto : Des.Time.t;
  max_rto : Des.Time.t;
  initial : Des.Time.t;
  mutable srtt : float; (* ns *)
  mutable rttvar : float; (* ns *)
  mutable n : int;
  mutable backoff_factor : int;
}

let create ?(initial = Des.Time.ms 10) ?(min_rto = Des.Time.ms 1)
    ?(max_rto = Des.Time.sec 2) () =
  { min_rto; max_rto; initial; srtt = 0.0; rttvar = 0.0; n = 0; backoff_factor = 1 }

let observe t sample =
  let s = float_of_int sample in
  if t.n = 0 then begin
    t.srtt <- s;
    t.rttvar <- s /. 2.0
  end
  else begin
    (* RFC 6298: alpha = 1/8, beta = 1/4. *)
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. s));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. s)
  end;
  t.n <- t.n + 1;
  t.backoff_factor <- 1

(* [Int.min]/[Int.max], not [Stdlib]'s, which are polymorphic compare
   calls: these run once per segment sent. *)
let base t =
  if t.n = 0 then t.initial
  else begin
    let rto = int_of_float (t.srtt +. (4.0 *. t.rttvar)) in
    Int.min t.max_rto (Int.max t.min_rto rto)
  end

let current t = Int.min t.max_rto (base t * t.backoff_factor)

let backoff t =
  if base t * t.backoff_factor < t.max_rto then
    t.backoff_factor <- t.backoff_factor * 2

let srtt t = if t.n = 0 then None else Some (int_of_float t.srtt)
let samples t = t.n
