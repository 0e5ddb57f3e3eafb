type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let of_float_s s = int_of_float (Float.round (s *. 1e9))
let to_float_s t = float_of_int t /. 1e9
let to_float_us t = float_of_int t /. 1e3
let to_float_ms t = float_of_int t /. 1e6
let compare = Int.compare
let min = Int.min
let max = Int.max

let pp ppf t =
  let a = abs t in
  if a < 1_000 then Fmt.pf ppf "%dns" t
  else if a < 1_000_000 then Fmt.pf ppf "%.3fus" (to_float_us t)
  else if a < 1_000_000_000 then Fmt.pf ppf "%.3fms" (to_float_ms t)
  else Fmt.pf ppf "%.3fs" (to_float_s t)
