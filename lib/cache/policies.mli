(** Constructor dispatch over the available replacement policies. *)

type kind = Clock | Two_q | Lru | Fifo

val all : kind list
val to_string : kind -> string
val make : kind -> capacity:int -> 'k Policy.t
