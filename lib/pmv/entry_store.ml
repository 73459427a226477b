(* Bounded storage for PMV entries (Section 3.2): a hash table from
   basic condition part to its cached result tuples — the "index I on
   bcp" — with residency governed by a pluggable replacement policy
   (CLOCK by default, 2Q per Section 3.5) and at most F tuples per bcp.

   The entry table and the policy are kept in lock step: an entry exists
   iff its bcp is resident in the policy; eviction drops the entry (and
   reports each dropped tuple through [on_change], so auxiliary
   maintenance indexes stay consistent).

   Read side (DESIGN.md Section 13): every entry additionally publishes
   an immutable [version] through an atomic pointer. Writers (O3 fills,
   deferred maintenance, evictions) mutate the entry under the engine's
   existing X discipline and then swap in a fresh version, retiring the
   old one to an epoch domain; probes read the current version under an
   epoch guard and therefore never block on, or tear under, concurrent
   maintenance. A hash array of atomic bucket heads over immutable
   chains ([rindex]) gives probes a lock-free bcp -> version route:
   membership changes swap one bucket's chain in a single store, so a
   reader always sees a consistent index. *)

open Minirel_storage
open Minirel_query

type version = {
  v_tuples : Tuple.t list;  (* immutable snapshot, most recent first *)
  v_n : int;
  v_complete : bool;  (* whole result multiset for the bcp, not a partial fill *)
  v_stamp : int;  (* data stamp at publication; trusted iff still current *)
}

type entry = {
  e_bcp : Bcp.t;
  mutable tuples : Tuple.t list;  (* most recently cached first; <= f_max *)
  mutable n : int;
  mutable refs : int;  (* lifetime references; feeds popularity ranking *)
  published : version Atomic.t;
}

type change = Added | Removed

type t = {
  table : entry Bcp.Table.t;
  policy : Bcp.t Minirel_cache.Policy.t;
  f_max : int;
  mutable n_tuples : int;
  mutable tuple_bytes : int;
  mutable on_change : change -> Bcp.t -> Tuple.t -> unit;
  (* Lock-free read side. [stamp] is the data staleness clock: any
     relevant base delta bumps it, untrusting every complete version
     published before the delta. [rindex] maps bcp -> the entry's
     published-version atom through copy-on-write buckets. *)
  stamp : int Atomic.t;
  epoch : Minirel_parallel.Epoch.t;
  rindex : (Bcp.t * version Atomic.t) list Atomic.t array;
}

let bucket_index buckets bcp = (Bcp.hash bcp land max_int) mod Array.length buckets

(* Writer-side membership updates swap one bucket's immutable chain
   behind its atomic head, so a concurrent probe sees either the old or
   the new chain, never a half-updated one. The array itself is fixed
   at creation; writers are serialized by the engine's X discipline, so
   the read-modify-write on a bucket head cannot lose an update. *)
let rindex_add t entry =
  let slot = t.rindex.(bucket_index t.rindex entry.e_bcp) in
  Atomic.set slot ((entry.e_bcp, entry.published) :: Atomic.get slot)

let rindex_remove t bcp =
  let slot = t.rindex.(bucket_index t.rindex bcp) in
  Atomic.set slot (List.filter (fun (b, _) -> not (Bcp.equal b bcp)) (Atomic.get slot))

(* Swap in a fresh immutable snapshot of the entry's state and retire
   the superseded version: it stays alive (on the epoch's retire list)
   until every probe active at this moment has left. *)
let publish ?stamp ~complete t entry =
  let v_stamp = match stamp with Some s -> s | None -> Atomic.get t.stamp in
  let old = Atomic.get entry.published in
  Atomic.set entry.published
    { v_tuples = entry.tuples; v_n = entry.n; v_complete = complete; v_stamp };
  Minirel_telemetry.Flight.record Version_publish ~a:v_stamp ~b:entry.n;
  Minirel_parallel.Epoch.retire t.epoch (fun () -> ignore (Sys.opaque_identity old));
  Minirel_telemetry.Flight.record Epoch_advance
    ~a:(Minirel_parallel.Epoch.current_epoch t.epoch)

let new_entry t bcp =
  let entry =
    {
      e_bcp = bcp;
      tuples = [];
      n = 0;
      refs = 1;
      published =
        Atomic.make
          { v_tuples = []; v_n = 0; v_complete = false; v_stamp = Atomic.get t.stamp };
    }
  in
  Bcp.Table.replace t.table bcp entry;
  rindex_add t entry;
  entry

let create ?(policy = Minirel_cache.Policies.Clock) ~capacity ~f_max () =
  if f_max <= 0 then invalid_arg "Entry_store.create: f_max must be positive";
  let t =
    {
      table = Bcp.Table.create (2 * capacity);
      policy = Minirel_cache.Policies.make policy ~capacity;
      f_max;
      n_tuples = 0;
      tuple_bytes = 0;
      on_change = (fun _ _ _ -> ());
      stamp = Atomic.make 1;
      epoch = Minirel_parallel.Epoch.create ();
      rindex = Array.init (max 16 (2 * capacity)) (fun _ -> Atomic.make []);
    }
  in
  Minirel_cache.Policy.set_on_evict t.policy (fun bcp ->
      match Bcp.Table.find_opt t.table bcp with
      | None -> ()
      | Some entry ->
          Bcp.Table.remove t.table bcp;
          rindex_remove t bcp;
          t.n_tuples <- t.n_tuples - entry.n;
          List.iter
            (fun tuple ->
              t.tuple_bytes <- t.tuple_bytes - Tuple.size_bytes tuple;
              t.on_change Removed bcp tuple)
            entry.tuples);
  t

let set_on_change t f = t.on_change <- f

let f_max t = t.f_max
let capacity t = Minirel_cache.Policy.capacity t.policy

(* Budget-arbiter capacity change (DESIGN.md Section 17): delegate to
   the replacement policy. Shrinking evicts through the normal
   [on_evict] route, so entries drop, [rindex] membership updates, and
   the auxiliary indexes stay in step; growing only raises the bound. *)
let resize t ~capacity = Minirel_cache.Policy.resize t.policy capacity
let n_entries t = Bcp.Table.length t.table
let n_tuples t = t.n_tuples
let tuple_bytes t = t.tuple_bytes
let policy_name t = Minirel_cache.Policy.name t.policy
let policy_stats t = Minirel_cache.Policy.stats t.policy

(* Pure lookup: no recency update, no admission. *)
let find t bcp = Bcp.Table.find_opt t.table bcp

(* ---- Lock-free read side ---------------------------------------- *)

let current_stamp t = Atomic.get t.stamp

(* A relevant base delta happened: every complete version published
   before it can no longer be served as the whole answer for its bcp.
   One atomic increment; the versions themselves are untouched. *)
let invalidate_complete t =
  let s = Atomic.fetch_and_add t.stamp 1 in
  Minirel_telemetry.Flight.record Version_distrust ~a:(s + 1)

let version_trusted t v = v.v_complete && v.v_stamp = Atomic.get t.stamp

(* Bracket a multi-probe read section in one epoch guard. Versions that
   escape the guard stay valid (they are immutable and GC-kept); the
   guard is what bounds how long the store's retire chain must keep
   superseded versions for concurrent readers. *)
let read t f =
  let g = Minirel_parallel.Epoch.enter t.epoch in
  Fun.protect ~finally:(fun () -> Minirel_parallel.Epoch.leave t.epoch g) f

(* Lock-free probe: route through the current bucket array to the
   entry's published version. No recency update, no admission, no lock
   — safe from any domain while a writer fills or retires entries. *)
let probe t bcp =
  read t (fun () ->
      let rec scan = function
        | [] -> None
        | (b, v) :: rest -> if Bcp.equal b bcp then Some (Atomic.get v) else scan rest
      in
      scan (Atomic.get t.rindex.(bucket_index t.rindex bcp)))

let epoch_stats t = Minirel_parallel.Epoch.stats t.epoch

let reclaim t =
  let n = Minirel_parallel.Epoch.reclaim t.epoch in
  if n > 0 then Minirel_telemetry.Flight.record Epoch_reclaim ~a:n;
  n

(* Engine shutdown: release the whole retire chain so repeated
   create/destroy cycles (Engine.scoped in tests) do not accumulate
   version chains. Callers guarantee no probe is in flight. *)
let shutdown t = ignore (Minirel_parallel.Epoch.drain t.epoch)

(* ---- Write side (engine-serialized, behind the X discipline) ----- *)

(* One query-time reference of [bcp] (Operation O2).

   - [`Resident]: the entry is in the PMV; serve its tuples.
   - [`Admitted]: 2Q promoted the bcp from its ghost queue; an empty
     entry was created, to be filled with this query's O3 results.
   - [`Rejected storable]: not resident. With a fill-admitting policy
     (CLOCK/LRU/FIFO) [storable] is true and Operation O3 may admit the
     bcp when its first result tuple materialises ([admit_for_fill]);
     under 2Q the reference was only recorded in A1 and no tuples may
     be stored this time. *)
let reference t bcp =
  match Minirel_cache.Policy.reference t.policy bcp with
  | `Resident -> (
      match Bcp.Table.find_opt t.table bcp with
      | Some entry ->
          entry.refs <- entry.refs + 1;
          `Resident entry
      | None ->
          (* policy and table out of sync: impossible by construction *)
          assert false)
  | `Admitted -> `Admitted (new_entry t bcp)
  | `Rejected -> `Rejected (Minirel_cache.Policy.admit_on_fill t.policy)

(* Operation O3 admission: a result tuple belonging to a non-resident
   bcp arrived and the policy admits on fill — "a new basic condition
   part bcp_j is added into V_PM", possibly purging a victim. *)
let admit_for_fill t bcp =
  Minirel_cache.Policy.admit t.policy bcp;
  match Bcp.Table.find_opt t.table bcp with
  | Some entry -> entry
  | None -> new_entry t bcp

(* Cache one result tuple under [entry] (Operation O3), respecting the
   per-bcp bound F. *)
let add_tuple t entry tuple =
  if entry.n >= t.f_max then false
  else begin
    entry.tuples <- tuple :: entry.tuples;
    entry.n <- entry.n + 1;
    t.n_tuples <- t.n_tuples + 1;
    t.tuple_bytes <- t.tuple_bytes + Tuple.size_bytes tuple;
    t.on_change Added entry.e_bcp tuple;
    publish ~complete:false t entry;
    true
  end

(* Remove one occurrence of [tuple] from the entry of [bcp] (deferred
   maintenance). Entries may legitimately become empty; they keep their
   slot until evicted, mirroring a bcp whose hot tuples were deleted. *)
let remove_tuple t bcp tuple =
  match Bcp.Table.find_opt t.table bcp with
  | None -> false
  | Some entry ->
      let removed = ref false in
      entry.tuples <-
        List.filter
          (fun cached ->
            if (not !removed) && Tuple.equal cached tuple then begin
              removed := true;
              false
            end
            else true)
          entry.tuples;
      if !removed then begin
        entry.n <- entry.n - 1;
        t.n_tuples <- t.n_tuples - 1;
        t.tuple_bytes <- t.tuple_bytes - Tuple.size_bytes tuple;
        t.on_change Removed bcp tuple;
        publish ~complete:false t entry
      end;
      !removed

let drop_entry t bcp =
  (match Bcp.Table.find_opt t.table bcp with
  | None -> ()
  | Some entry ->
      Bcp.Table.remove t.table bcp;
      rindex_remove t bcp;
      t.n_tuples <- t.n_tuples - entry.n;
      List.iter
        (fun tuple ->
          t.tuple_bytes <- t.tuple_bytes - Tuple.size_bytes tuple;
          t.on_change Removed bcp tuple)
        entry.tuples);
  Minirel_cache.Policy.remove t.policy bcp

(* Install the {e complete} result multiset for [bcp], captured by a
   fallback query whose delivered stream was proven exact (no stale
   purge) against the data state [stamp]. If a relevant delta committed
   since the capture, the store's stamp has moved past [stamp] and the
   installed version is published already-untrusted — soundness never
   depends on winning that race. *)
let install_complete t bcp tuples ~stamp =
  let n = List.length tuples in
  if n > t.f_max then false
  else begin
    let entry = admit_for_fill t bcp in
    List.iter
      (fun tuple ->
        t.tuple_bytes <- t.tuple_bytes - Tuple.size_bytes tuple;
        t.on_change Removed bcp tuple)
      entry.tuples;
    t.n_tuples <- t.n_tuples - entry.n;
    entry.tuples <- [];
    entry.n <- 0;
    List.iter
      (fun tuple ->
        entry.tuples <- tuple :: entry.tuples;
        entry.n <- entry.n + 1;
        t.n_tuples <- t.n_tuples + 1;
        t.tuple_bytes <- t.tuple_bytes + Tuple.size_bytes tuple;
        t.on_change Added bcp tuple)
      (List.rev tuples);
    publish ~stamp ~complete:true t entry;
    true
  end

let iter t f = Bcp.Table.iter (fun _ entry -> f entry) t.table

let fold t f init =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

(* Paper invariant (Section 3.2): L*F*At bounds the PMV footprint. The
   published version must agree with the writer-visible entry state at
   any writer-quiescent point. *)
let invariants_ok t =
  n_entries t <= capacity t
  && t.n_tuples <= capacity t * t.f_max
  && fold t
       (fun ok e ->
         let v = Atomic.get e.published in
         ok
         && e.n <= t.f_max
         && e.n = List.length e.tuples
         && v.v_n = List.length v.v_tuples
         && v.v_n = e.n)
       true
