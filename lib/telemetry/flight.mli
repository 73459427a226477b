(** Flight recorder: always-on per-domain ring buffers of fixed-size
    low-level event records (probe hits/misses, version publishes,
    epoch advances, lock waits, fault hits, maintenance decisions).
    Recording is allocation-free and a few stores cheap; dumps merge
    all rings into one globally-ordered timeline whose digest is
    reproducible whenever event production is deterministic. *)

type kind =
  | Probe_hit
  | Probe_miss
  | Version_publish
  | Version_distrust
  | Epoch_advance
  | Epoch_reclaim
  | Stale_purge
  | Lock_wait
  | Fault_hit
  | Maint_defer
  | Maint_apply
  | Budget_rebalance  (** arbiter resized a view: [a]=template id, [b]=new L *)
  | Slo_breach
  | Dump_trigger

val kind_to_string : kind -> string

(** Number of per-domain rings (writers hash by domain id). *)
val n_rings : int

(** Events retained per ring before overwrite. *)
val ring_capacity : int

val set_enabled : bool -> unit
val is_enabled : unit -> bool

(** Record one event in the current domain's ring. [a]/[b] are
    kind-specific payloads; for site-labelled kinds [a] is an
    [intern]ed string id. [ts] reuses a monotonic timestamp the caller
    already read (hot paths avoid a second clock read); default is
    now. No-op when disabled. *)
val record : ?a:int -> ?b:int -> ?ts:int64 -> kind -> unit

(** Intern a short label (failpoint site, relation name) into a stable
    small id usable as an event payload. *)
val intern : string -> int

(** Reverse of [intern]; falls back to the numeric id. *)
val label_of : int -> string

type event = { e_seq : int; e_ts : int64; e_kind : kind; e_a : int; e_b : int }

(** Merge every ring into one list ordered by global sequence. *)
val dump : unit -> event list

(** Clear all rings and restart the sequence counter. *)
val reset : unit -> unit

(** FNV-1a over the (kind, a, b) stream — timestamps excluded, so the
    digest depends only on what happened. *)
val digest : event list -> string

val pp_event : Format.formatter -> event -> unit
val pp_dump : Format.formatter -> event list -> unit
