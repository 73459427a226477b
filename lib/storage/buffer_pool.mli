(** A simulated buffer pool. Page contents stay in memory; the pool
    tracks which (file, page) pairs are resident under CLOCK replacement
    and charges logical I/Os for the accesses that would have missed:
    reads on read misses, writes when dirty pages are evicted or
    flushed. A write miss admits the page without charging a read (it
    models an append).

    The frames live in flat arrays and an open-addressing table maps a
    page to its frame, so {!access} allocates nothing, hit or miss. *)

type t

(** [fault] is the failpoint scope the pool's probes fire in (default:
    the process-global registry).
    @raise Invalid_argument if [capacity <= 0]. *)
val create : ?fault:Minirel_fault.Fault.reg -> capacity:int -> unit -> t

val stats : t -> Io_stats.t

(** CLOCK's counters: every access is a reference; a miss counts as a
    rejection and an admission; evictions count the victims. *)
val policy_stats : t -> Minirel_cache.Cache_stats.t

val capacity : t -> int

(** Number of currently resident pages. *)
val resident : t -> int

(** Allocate a fresh file id for a heap file or a simulated index file. *)
val register_file : t -> int

(** Record one page access, charging I/O on a miss and marking the page
    dirty on writes. Allocates nothing.
    @raise Invalid_argument when [page] is negative or needs more than
    32 bits. *)
val access : t -> file:int -> page:int -> mode:[ `Read | `Write ] -> unit

(** Write back every dirty page (one write charge each). *)
val flush : t -> unit

(** Drop every resident page of [file] without write-back accounting;
    for relations rebuilt from scratch. The freed frames are handed out
    again before CLOCK evicts anything. *)
val invalidate_file : t -> file:int -> unit

(** Reset the logical I/O counters {e and} CLOCK's counters in one step
    (historically the two drifted apart between experiment runs). *)
val reset_stats : t -> unit

(** Register this pool as telemetry source [name] (default
    ["bufferpool"]): I/O counters, CLOCK counters (under [policy.]),
    residency, capacity and dirty-page gauges. The registry's reset
    then goes through {!reset_stats}. *)
val register_telemetry :
  ?registry:Minirel_telemetry.Registry.t -> ?name:string -> t -> unit
