(** Transactions over the catalog: batches of inserts/deletes/updates
    that keep heap files and secondary indexes consistent and feed the
    resulting deltas to registered view-maintenance hooks (traditional
    MVs maintain immediately; PMVs defer per Section 3.4). *)

open Minirel_storage
open Minirel_query

type change =
  | Insert of { rel : string; tuple : Tuple.t }
  | Delete of { rel : string; pred : Predicate.t }  (** all matching rows *)
  | Update of { rel : string; pred : Predicate.t; set : (int * Value.t) list }

type delta = {
  rel : string;
  inserted : Tuple.t list;
  deleted : Tuple.t list;
  updated : (Tuple.t * Tuple.t) list;  (** (old, new) *)
}

type t

(** [fault] scopes the failpoints of the lock manager this creates and
    of downstream consumers (WAL, maintenance) that read it back via
    {!fault}. Default: the process-global registry. *)
val create : ?fault:Minirel_fault.Fault.reg -> Minirel_index.Catalog.t -> t

val catalog : t -> Minirel_index.Catalog.t
val locks : t -> Lock_manager.t

(** The fault scope this manager was created with. *)
val fault : t -> Minirel_fault.Fault.reg

(** Register this manager as telemetry source ["txn"]:
    [index_matches] and [scan_matches] count how each Delete/Update
    found its rows — through a single-attribute index whose key its
    predicate pins ({!Minirel_query.Predicate.pinned_value}), or by
    scanning the heap. *)
val register_telemetry : registry:Minirel_telemetry.Registry.t -> t -> unit

(** Hooks run once per change, after it is applied. *)
val register_hook : t -> name:string -> (delta -> unit) -> unit

val unregister_hook : t -> name:string -> unit

(** Run a transaction: X-lock every touched relation, apply the changes
    in order, notify hooks after each, release locks. Returns the
    deltas. @raise Lock_manager.Conflict on a lock conflict. *)
val run : t -> change list -> delta list
