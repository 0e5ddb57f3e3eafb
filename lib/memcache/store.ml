type entry = { flags : int; value : string }

(* The generic table's key compare is [compare_val]; [String.equal]
   over the same hash keeps the same buckets without it. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = { table : entry Tbl.t; mutable bytes : int }

let create () = { table = Tbl.create 1024; bytes = 0 }

let set t ~key ~flags ~value =
  (match Tbl.find_opt t.table key with
  | Some old -> t.bytes <- t.bytes - String.length old.value
  | None -> ());
  Tbl.replace t.table key { flags; value };
  t.bytes <- t.bytes + String.length value

let get t ~key =
  match Tbl.find_opt t.table key with
  | Some { flags; value } -> Some (flags, value)
  | None -> None

let size t = Tbl.length t.table
let bytes t = t.bytes

let preload t ~count ~key_of ~value_size =
  let value = String.make value_size 'v' in
  for i = 0 to count - 1 do
    set t ~key:(key_of i) ~flags:0 ~value
  done
