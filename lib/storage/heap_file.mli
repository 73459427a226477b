(** Heap files: a growable array of slotted pages holding one relation.
    Every page touch goes through the owning buffer pool, so scans,
    fetches and mutations are charged logical I/Os. *)

type t

val default_slots_per_page : int

(** @raise Invalid_argument unless [0 < slots_per_page <= Rid.max_slots]. *)
val create : ?slots_per_page:int -> Buffer_pool.t -> Schema.t -> t

val schema : t -> Schema.t
val file_id : t -> int
val n_pages : t -> int
val n_tuples : t -> int

(** Total nominal bytes of the live tuples (scans every page). *)
val size_bytes : t -> int

(** Insert into the first page with room, allocating one if needed.
    @raise Invalid_argument when the tuple does not conform to the
    schema. *)
val insert : t -> Tuple.t -> Rid.t

(** The rid's tuple, charging one page read. Allocates nothing.
    @raise Not_found when the rid's slot is free or out of range. *)
val fetch : t -> Rid.t -> Tuple.t

(** Free the slot, returning its tuple. @raise Not_found if empty. *)
val delete : t -> Rid.t -> Tuple.t

(** In-place update, schema-checked. @raise Not_found if the slot is
    empty; @raise Invalid_argument on a non-conforming tuple. *)
val update : t -> Rid.t -> Tuple.t -> unit

(** Visit the live tuples of one page, charging a single read.
    @raise Invalid_argument on an out-of-range page. *)
val iter_page : t -> int -> (Rid.t -> Tuple.t -> unit) -> unit

(** Full scan in page order, charging one read per page. *)
val iter : t -> (Rid.t -> Tuple.t -> unit) -> unit

val fold : t -> ('a -> Rid.t -> Tuple.t -> 'a) -> 'a -> 'a
