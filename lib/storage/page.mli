(** A slotted page: a fixed number of slots, each free or holding one
    tuple. Pages are the unit of buffer-pool residency and therefore
    the unit of simulated I/O. A slot holds its tuple directly, with no
    option box; one shared empty array marks the free slots, so a page
    stores no empty tuple. *)

type t

(** @raise Invalid_argument if [slots_per_page <= 0]. *)
val create : id:int -> slots_per_page:int -> t

val capacity : t -> int
val live : t -> int
val is_full : t -> bool

(** The slot's tuple. Allocates nothing.
    @raise Not_found when the slot is free or out of range. *)
val get : t -> int -> Tuple.t

(** Store the tuple in the first free slot; returns the slot number.
    @raise Invalid_argument when the page is full or the tuple is
    empty. *)
val insert : t -> Tuple.t -> int

(** Free the slot, returning its tuple. @raise Not_found if empty. *)
val delete : t -> int -> Tuple.t

(** Overwrite an occupied slot. @raise Not_found if empty;
    @raise Invalid_argument on an empty tuple. *)
val replace : t -> int -> Tuple.t -> unit

(** Visit occupied slots in slot order. *)
val iter : t -> (int -> Tuple.t -> unit) -> unit
