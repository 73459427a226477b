type t = unit
type stats = { submitted : int; steals : int; parks : int }

let create ~domains = if domains < 1 then invalid_arg "Pool.create: domains must be >= 1"
let stats () = { submitted = 0; steals = 0; parks = 0 }
let shutdown () = ()
