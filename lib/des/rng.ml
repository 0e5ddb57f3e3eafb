type t = { state : Random.State.t; seed : int }

let create ~seed = { state = Random.State.make [| seed |]; seed }

(* FNV-1a over the label, mixed with the parent seed, keeps children
   independent of each other and of the parent's draw count. *)
let hash_label seed label =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    label;
  !h lxor (seed * 0x1e3779b97f4a7c15)

let split t ~label = create ~seed:(hash_label t.seed label)
let int t bound = Random.State.int t.state bound
let float t bound = Random.State.float t.state bound
let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let pareto t ~shape ~scale =
  let u = 1.0 -. float t 1.0 in
  scale /. (u ** (1.0 /. shape))

let gaussian t ~mean ~stddev =
  let u1 = 1.0 -. float t 1.0 and u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)
