(** The catalog: relation name -> heap file + secondary indexes,
    sharing one buffer pool. All index maintenance for base-table
    mutations is centralised here so the executor and the transaction
    layer cannot leave indexes stale. *)

type t

val create : Minirel_storage.Buffer_pool.t -> t
val pool : t -> Minirel_storage.Buffer_pool.t

(** Monotonic counter bumped by every index DDL operation
    ([create_index], [drop_index], [vacuum]). Plan caches compare it to
    decide whether a compiled skeleton still matches the physical
    design. *)
val version : t -> int

(** The executor's counters for this catalog: root cursors opened and
    tuples produced at plan roots. They live with the catalog they
    count, so no process-global table keeps a dropped catalog alive. *)
val cursors : t -> int Atomic.t

val root_tuples : t -> int Atomic.t

(** Create an empty relation named by the schema.
    @raise Invalid_argument when the name is taken. *)
val create_relation :
  t -> ?slots_per_page:int -> Minirel_storage.Schema.t -> Minirel_storage.Heap_file.t

(** @raise Not_found on unknown relations. *)
val heap : t -> string -> Minirel_storage.Heap_file.t

(** @raise Not_found on unknown relations. *)
val schema : t -> string -> Minirel_storage.Schema.t

val mem : t -> string -> bool
val relations : t -> string list

(** Create an index on the named attributes and backfill it from the
    heap. @raise Invalid_argument when the index name is taken;
    @raise Not_found on unknown relations or attributes. *)
val create_index :
  t -> ?kind:Index.kind -> rel:string -> name:string -> attrs:string list -> unit -> Index.t

(** Drop an index by name, releasing its buffer-pool pages.
    @raise Invalid_argument when [rel] has no index called [name];
    @raise Not_found on unknown relations. *)
val drop_index : t -> rel:string -> name:string -> unit

val indexes : t -> string -> Index.t list

(** First index whose key is exactly [attrs], in order. *)
val index_on : t -> rel:string -> attrs:string list -> Index.t option

(** Insert into the heap and every index. *)
val insert : t -> rel:string -> Minirel_storage.Tuple.t -> Minirel_storage.Rid.t

(** Delete from the heap and every index, returning the old tuple.
    @raise Not_found when the rid is empty. *)
val delete : t -> rel:string -> Minirel_storage.Rid.t -> Minirel_storage.Tuple.t

(** Compact a relation: rewrite tuples into a fresh hole-free heap and
    rebuild every index (bulk-loaded). RIDs change — do not run while
    cursors are open. Returns the pages reclaimed.
    @raise Not_found on unknown relations. *)
val vacuum : t -> rel:string -> int

exception Inconsistent of string

(** Integrity check ("fsck"): every index must mirror its heap exactly
    and satisfy its structural invariants.
    @raise Inconsistent describing the first violation. *)
val validate : t -> unit

(** In-place update keeping all indexes consistent; returns the old
    tuple. @raise Not_found when the rid is empty. *)
val update :
  t -> rel:string -> Minirel_storage.Rid.t -> Minirel_storage.Tuple.t -> Minirel_storage.Tuple.t
