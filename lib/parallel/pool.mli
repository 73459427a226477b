(** What is left of the Domain pool. Every query runs on the calling
    domain, so nothing here spawns a domain or runs a task. These names
    stay only because [bench/e2e] still calls them; each reports what
    is now true. *)

type t

(** Scheduler counters; always zero. *)
type stats = { submitted : int; steals : int; parks : int }

(** Spawns no domain.
    @raise Invalid_argument when [domains < 1]. *)
val create : domains:int -> t

val stats : t -> stats
val shutdown : t -> unit
