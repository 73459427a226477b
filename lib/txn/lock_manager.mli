(** A strict S/X lock manager over named objects (relations, views,
    PMVs). The engine is single-threaded, so a conflicting request
    returns [Error conflict] instead of blocking. Section 3.6's
    protocol — queries hold an S lock on the PMV across O2 and O3,
    maintenance takes X — is expressed in these terms. *)

type mode = S | X

val mode_to_string : mode -> string

type conflict = { obj : string; holders : int list; held : mode; requested : mode }

val pp_conflict : conflict Fmt.t

(** A refused request, raised by {!acquire_exn}. Its registered
    printer renders ["lock conflict: "] followed by {!pp_conflict}. *)
exception Conflict of conflict

type t

(** [fault] scopes the injected-conflict failpoint (default: the
    process-global registry). *)
val create : ?fault:Minirel_fault.Fault.reg -> unit -> t

(** Grant rules: S shares with S; a sole S holder may upgrade to X;
    X is exclusive but re-entrant for its holder. *)
val acquire : t -> txn:int -> obj:string -> mode -> (unit, conflict) result

val release : t -> txn:int -> obj:string -> unit
val release_all : t -> txn:int -> unit

(** Current holders of the object, if any. *)
val held_by : t -> obj:string -> (mode * int list) option

(** {!acquire}, raising instead of returning the refusal.
    @raise Conflict when the lock cannot be granted. *)
val acquire_exn : t -> txn:int -> obj:string -> mode -> unit

type stats = {
  mutable acquires : int;  (** granted requests *)
  mutable conflicts : int;  (** requests answered [Error] *)
  mutable upgrades : int;  (** S -> X promotions *)
  mutable releases : int;
  acquire_ns : Minirel_telemetry.Histogram.t;
      (** time spent inside {!acquire}; the engine never blocks, so this
          is the whole wait a request experiences *)
}

val stats : t -> stats
val reset_stats : t -> unit

(** Register this manager as telemetry source [name] (default
    ["lockmgr"]). *)
val register_telemetry :
  ?registry:Minirel_telemetry.Registry.t -> ?name:string -> t -> unit
