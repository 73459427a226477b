(** Relation schemas: ordered, named, typed attributes. *)

type ty = Tint | Tfloat | Tstr

val ty_to_string : ty -> string

(** NULL matches every type. *)
val ty_matches : ty -> Value.t -> bool

type attr = { a_name : string; a_ty : ty }

type t = { name : string; attrs : attr array }

(** [create name attrs] builds a schema.
    @raise Invalid_argument on an empty relation name, an empty
    attribute list (a page stores no empty tuple) or duplicate
    attribute names. *)
val create : string -> (string * ty) list -> t

val name : t -> string
val arity : t -> int
val attr_name : t -> int -> string
val attr_ty : t -> int -> ty

(** Position of a named attribute. @raise Not_found if absent. *)
val pos : t -> string -> int

val pos_opt : t -> string -> int option
val mem : t -> string -> bool

(** Whether a tuple has this schema's arity and attribute types. *)
val conforms : t -> Value.t array -> bool

val pp : t Fmt.t
