type t = { ip : int; port : int }

let v ip port = { ip; port }
let ip t = t.ip
let port t = t.port
let equal a b = a.ip = b.ip && a.port = b.port

let compare a b =
  let c = Int.compare a.ip b.ip in
  if c <> 0 then c else Int.compare a.port b.port

let pp ppf t = Fmt.pf ppf "%d:%d" t.ip t.port
