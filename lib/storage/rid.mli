(** Record identifiers: a page number and a slot within the page,
    packed into one immediate int (the page in the high bits, a 20-bit
    slot in the low bits). A rid allocates nothing, and rid lists in
    the indexes hold ints. [compare] orders by page, then slot. *)

type t = private int

(** Slots a page may have: 2{^20}. *)
val max_slots : int

(** @raise Invalid_argument on a negative page or one too large to
    pack, or a slot outside [\[0, max_slots)]. *)
val make : page:int -> slot:int -> t

val page : t -> int
val slot : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
