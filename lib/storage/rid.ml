(* Record identifiers: a page number and a slot within the page, packed
   into one immediate int. The slot takes the low [slot_bits] bits, so
   comparing two rids as ints orders them by page, then slot. *)

type t = int

let slot_bits = 20
let max_slots = 1 lsl slot_bits

(* Pages below this pack into a non-negative int. *)
let page_limit = 1 lsl (Sys.int_size - 1 - slot_bits)

let make ~page ~slot =
  if page < 0 || page >= page_limit then invalid_arg "Rid.make: page out of range";
  if slot < 0 || slot >= max_slots then invalid_arg "Rid.make: slot out of range";
  (page lsl slot_bits) lor slot

let page t = t lsr slot_bits
let slot t = t land (max_slots - 1)
let compare = Int.compare
let equal = Int.equal
let pp ppf t = Fmt.pf ppf "(%d,%d)" (page t) (slot t)
