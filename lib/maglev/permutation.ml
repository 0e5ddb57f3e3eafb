type t = { offset : int; skip : int; size : int }

let create ~name ~size =
  if size < 3 || not (Hashing.is_prime size) then
    invalid_arg "Permutation.create: size must be a prime >= 3";
  let offset = Hashing.string ~seed:0xC0FFEE name mod size in
  let skip = (Hashing.string ~seed:0xBADDAD name mod (size - 1)) + 1 in
  { offset; skip; size }

let offset t = t.offset
let skip t = t.skip
let nth t j = (t.offset + (j mod t.size * t.skip)) mod t.size
