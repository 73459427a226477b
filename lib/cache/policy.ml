(* Uniform interface over replacement policies.

   A policy manages a bounded set of *resident* keys. Residency is what
   entitles the owner (the PMV entry store, the simulator) to hold data for
   the key. Two operations mutate the recency state:

   [reference k] records one access without forcing residency:
   - [`Resident]: already resident; recency updated (e.g. CLOCK refbit).
   - [`Admitted]: the reference itself made the key resident — only 2Q
     does this, promoting a ghost-staged key from A1 to Am (Section 4.1
     of the paper). Victims are reported through the eviction callback.
   - [`Rejected]: not resident. CLOCK/LRU/FIFO leave the state
     untouched; 2Q stages the key in its ghost queue A1.

   [admit k] forces residency, evicting as needed; a no-op when already
   resident. Owners with [admit_on_fill = true] (CLOCK/LRU/FIFO) call
   it when data to cache actually materialises — the paper's Operation
   O3, where a new bcp enters the PMV only once a result tuple arrives.
   2Q sets [admit_on_fill = false]: residency is earned by a second
   query-time reference, never by fill. *)

type outcome = [ `Resident | `Admitted | `Rejected ]

type 'k t = {
  name : string;
  mutable capacity : int;
  admit_on_fill : bool;
  mem : 'k -> bool;
  reference : 'k -> outcome;
  admit : 'k -> unit;
  remove : 'k -> unit;  (** drop the key if resident (or staged); no-op otherwise *)
  size : unit -> int;  (** number of resident keys *)
  iter : ('k -> unit) -> unit;  (** over resident keys, unspecified order *)
  set_on_evict : ('k -> unit) -> unit;
  resize : int -> unit;  (** change the resident bound; shrink evicts *)
  stats : Cache_stats.t;
}

let name t = t.name
let capacity t = t.capacity

(* Change the resident-key bound in place. Shrinking evicts victims in
   the policy's own replacement order, reported through the eviction
   callback; growing only raises the bound (ghost/stage areas rescale
   with it). *)
let resize t n =
  if n <= 0 then invalid_arg "Policy.resize: capacity must be positive";
  if n <> t.capacity then begin
    t.resize n;
    t.capacity <- n
  end
let admit_on_fill t = t.admit_on_fill
let mem t k = t.mem k
let reference t k = t.reference k
let admit t k = t.admit k
let remove t k = t.remove k
let size t = t.size ()
let iter t f = t.iter f
let set_on_evict t f = t.set_on_evict f
let stats t = t.stats
