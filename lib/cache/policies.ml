(* Constructor dispatch over the available replacement policies. *)

type kind = Clock | Two_q | Lru | Fifo

let all = [ Clock; Two_q; Lru; Fifo ]

let to_string = function
  | Clock -> "clock"
  | Two_q -> "2q"
  | Lru -> "lru"
  | Fifo -> "fifo"

let make kind ~capacity =
  match kind with
  | Clock -> Clock.create ~capacity
  | Two_q -> Two_q.create ~capacity
  | Lru -> Lru.create ~capacity
  | Fifo -> Fifo.create ~capacity
