(* A simulated buffer pool. All page contents live in memory; the pool
   only tracks which (file, page) pairs are resident and charges logical
   I/Os for the accesses that would have missed. Replacement is CLOCK,
   matching common engine defaults.

   Simplification, documented in DESIGN.md: a write miss admits the page
   without charging a read (covers appends); a read miss charges one
   read; evicting or flushing a dirty page charges one write.

   Layout: a fixed ring of [capacity] frames kept in flat arrays (the
   page key, a reference bit and a dirty bit per frame), a stack of
   free frames, and an open-addressing table from page key to frame.
   Every array holds immediates, so a page touch, hit or miss, allocates
   nothing and calls no polymorphic hash or compare. *)

(* A page's key: file id and page number packed into one immediate int.
   The page number takes the low [page_bits] bits. *)
let page_bits = 32

let page_key ~file ~page =
  if page < 0 || page lsr page_bits <> 0 then
    invalid_arg "Buffer_pool: page number out of range";
  (file lsl page_bits) lor page

let file_of_key key = key lsr page_bits

module Cache_stats = Minirel_cache.Cache_stats

type t = {
  keys : int array;  (* frame -> page key, [no_page] when free *)
  refbit : bool array;
  dirty : bool array;
  free : int array;  (* stack of free frames; the top is [free.(n_free - 1)] *)
  mutable n_free : int;
  mutable hand : int;
  table : int array;  (* open addressing, linear probing: frame or [no_frame] *)
  mask : int;  (* [Array.length table - 1]; the length is a power of two *)
  shift : int;  (* [Sys.int_size - log2 (Array.length table)] *)
  stats : Io_stats.t;
  clock : Cache_stats.t;
  fault : Minirel_fault.Fault.reg;
  mutable next_file_id : int;
  (* Serialises frame/table/stats mutation: morsel scans on the Domain
     pool hit one shared pool. Per-page, not per-tuple — a page access
     amortises over every tuple on the page. *)
  lock : Mutex.t;
}

let no_page = -1
let no_frame = -1

(* Fibonacci hashing: the product's top bits mix every bit of the key,
   so consecutive pages of one file and the same page of different
   files spread over the table. *)
let slot_of t key = (key * 0x1E3779B97F4A7C15) lsr t.shift

let create ?(fault = Minirel_fault.Fault.default) ~capacity () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  (* at most half full, so linear probes stay short *)
  let bits = ref 1 in
  while 1 lsl !bits < 2 * capacity do
    incr bits
  done;
  let size = 1 lsl !bits in
  {
    keys = Array.make capacity no_page;
    refbit = Array.make capacity false;
    dirty = Array.make capacity false;
    (* frame 0 on top: frames are handed out 0, 1, 2, ... *)
    free = Array.init capacity (fun i -> capacity - 1 - i);
    n_free = capacity;
    hand = 0;
    table = Array.make size no_frame;
    mask = size - 1;
    shift = Sys.int_size - !bits;
    stats = Io_stats.create ();
    clock = Cache_stats.create ();
    fault;
    next_file_id = 0;
    lock = Mutex.create ();
  }

let stats t = t.stats
let policy_stats t = t.clock
let capacity t = Array.length t.keys
let resident t = capacity t - t.n_free

(* One reset for both counter families: Io_stats.reset alone used to
   leave the CLOCK hit/miss counters running, skewing back-to-back
   experiment readouts. *)
let reset_stats t =
  Io_stats.reset t.stats;
  Cache_stats.reset t.clock

let dirty_pages t = Array.fold_left (fun n d -> if d then n + 1 else n) 0 t.dirty

let register_telemetry ?(registry = Minirel_telemetry.Registry.default)
    ?(name = "bufferpool") t =
  let module R = Minirel_telemetry.Registry in
  R.register_source registry ~name
    ~reset:(fun () -> reset_stats t)
    (fun () ->
      List.map (fun (k, v) -> (k, R.Counter v)) (Io_stats.to_list t.stats)
      @ List.map
          (fun (k, v) -> ("policy." ^ k, R.Counter v))
          (Cache_stats.to_list t.clock)
      @ [
          ("resident", R.Gauge (float_of_int (resident t)));
          ("capacity", R.Gauge (float_of_int (capacity t)));
          ("dirty", R.Gauge (float_of_int (dirty_pages t)));
        ])

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Allocate a fresh file id for a heap file or an index. *)
let register_file t =
  locked t (fun () ->
      let id = t.next_file_id in
      t.next_file_id <- id + 1;
      id)

(* --- the key -> frame table --- *)

(* The table position of [key]'s entry, or of the empty place that
   ends its probe run when [key] is not resident. A top-level function,
   not a local closure over [t] and [key], so a lookup allocates
   nothing. *)
let rec position t key i =
  let f = t.table.(i) in
  if f = no_frame || t.keys.(f) = key then i else position t key ((i + 1) land t.mask)

let locate t key = position t key (slot_of t key)

(* Enter [frame], whose key is set and not yet in the table. *)
let table_add t frame = t.table.(locate t t.keys.(frame)) <- frame

(* Empty place [hole], then close the gap it leaves by backward
   shifting: each later entry of the run whose home is not cyclically
   in (hole, j] moves back into the hole, so lookups never meet a gap
   inside a run and no tombstones build up. *)
let rec close_gap t hole j =
  let f = t.table.(j) in
  if f = no_frame then t.table.(hole) <- no_frame
  else
    let home = slot_of t t.keys.(f) in
    if (j - home) land t.mask >= (j - hole) land t.mask then begin
      t.table.(hole) <- f;
      close_gap t j ((j + 1) land t.mask)
    end
    else close_gap t hole ((j + 1) land t.mask)

(* Delete [frame]'s entry; its key must still be set. *)
let table_remove t frame =
  let hole = locate t t.keys.(frame) in
  close_gap t hole ((hole + 1) land t.mask)

(* --- CLOCK --- *)

(* Sweep the hand until a frame with a clear reference bit is found,
   clearing bits on the way. Only called when no frame is free, so
   every frame holds a page; terminates within one revolution plus one
   frame. *)
let rec find_victim t =
  let i = t.hand in
  t.hand <- (if i + 1 = capacity t then 0 else i + 1);
  if t.refbit.(i) then begin
    t.refbit.(i) <- false;
    find_victim t
  end
  else i

(* Push the victim out; a dirty victim is written back. *)
let evict t frame =
  table_remove t frame;
  t.clock.Cache_stats.evictions <- t.clock.Cache_stats.evictions + 1;
  if t.dirty.(frame) then begin
    t.dirty.(frame) <- false;
    Io_stats.add_write t.stats
  end

(* Make [key] resident in a free frame, else in the CLOCK victim's. *)
let admit t key =
  let frame =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      let v = find_victim t in
      evict t v;
      v
    end
  in
  t.keys.(frame) <- key;
  t.refbit.(frame) <- true;
  table_add t frame;
  t.clock.Cache_stats.admissions <- t.clock.Cache_stats.admissions + 1;
  frame

(* One page reference under the pool lock: the CLOCK hit or admission,
   the read charge on a read miss, the dirty mark on a write. Raises
   nothing, so the caller needs no handler to release the lock. *)
let reference_locked t key mode =
  let clock = t.clock in
  clock.Cache_stats.references <- clock.Cache_stats.references + 1;
  let frame = t.table.(locate t key) in
  let frame =
    if frame <> no_frame then begin
      t.refbit.(frame) <- true;
      clock.Cache_stats.hits <- clock.Cache_stats.hits + 1;
      frame
    end
    else begin
      (* miss: fetch (reads only; a write miss models an append) *)
      clock.Cache_stats.rejections <- clock.Cache_stats.rejections + 1;
      (match mode with `Read -> Io_stats.add_read t.stats | `Write -> ());
      admit t key
    end
  in
  match mode with `Write -> t.dirty.(frame) <- true | `Read -> ()

let access t ~file ~page ~mode =
  (* The fault probe stays outside the lock: [Injected] must not leave
     the pool mutex held. *)
  (match mode with
  | `Read -> Minirel_fault.Fault.hit_in t.fault "bufferpool.read"
  | `Write -> Minirel_fault.Fault.hit_in t.fault "bufferpool.write");
  let key = page_key ~file ~page in
  Mutex.lock t.lock;
  reference_locked t key mode;
  Mutex.unlock t.lock

let flush t =
  locked t (fun () ->
      Array.iteri
        (fun frame d ->
          if d then begin
            t.dirty.(frame) <- false;
            Io_stats.add_write t.stats
          end)
        t.dirty)

(* Drop every resident page of [file], without write-back accounting;
   used when a relation is rebuilt from scratch. Frames are freed in
   frame order, so the highest freed frame is handed out first. *)
let invalidate_file t ~file =
  locked t (fun () ->
      Array.iteri
        (fun frame key ->
          if key <> no_page && file_of_key key = file then begin
            table_remove t frame;
            t.keys.(frame) <- no_page;
            t.refbit.(frame) <- false;
            t.dirty.(frame) <- false;
            t.free.(t.n_free) <- frame;
            t.n_free <- t.n_free + 1
          end)
        t.keys)
