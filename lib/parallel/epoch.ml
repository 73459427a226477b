(* Epoch-based reclamation for lock-free readers.

   Readers publish the global epoch in a slot around their critical
   section ([enter]/[leave]); writers hand retired objects to [retire],
   which stamps them with the epoch current at retirement and advances
   the global epoch. A retired object is released (its callback run and
   its reference dropped) only once every active reader has published a
   strictly later epoch than its stamp — a reader that entered before
   the retirement can therefore never observe the release.

   The OCaml GC makes use-after-free impossible regardless; what the
   protocol buys is a *bounded, observable* deferral: the retire list is
   the version chain the entry store keeps alive for in-flight readers,
   and its counters let tests prove that nothing is released early and
   that nothing leaks past [drain].

   Writer-side state (the retire list) is mutex-protected: retirement is
   the store's mutation path, which is single-writer by engine design,
   but the mutex keeps the stats and list coherent even if two stores'
   writers run on different domains. Reader slots are plain atomics — enter
   and leave are a CAS and a store, never a lock. *)

type t = {
  global : int Atomic.t;  (* current epoch; starts at 1, 0 marks a free slot *)
  slots : int Atomic.t array;  (* per-reader published epoch; 0 = quiescent *)
  mutex : Mutex.t;  (* guards the retire list and writer-side counters *)
  mutable retired : (int * (unit -> unit)) list;  (* (stamp, release), newest first *)
  mutable n_retired : int;  (* lifetime retirements *)
  mutable n_reclaimed : int;  (* lifetime releases *)
}

type guard = int  (* index of the slot the reader claimed *)

type stats = {
  retired : int;
  reclaimed : int;
  in_flight : int;  (* retired versions still awaiting release *)
  active_readers : int;
}

(* How many retired versions may accumulate before a retirement also
   attempts a reclaim pass; amortises the slot scan. *)
let reclaim_every = 64

let create ?(slots = 64) () =
  if slots < 1 then invalid_arg "Epoch.create: slots must be >= 1";
  {
    global = Atomic.make 1;
    slots = Array.init slots (fun _ -> Atomic.make 0);
    mutex = Mutex.create ();
    retired = [];
    n_retired = 0;
    n_reclaimed = 0;
  }

(* Claim a free slot and publish the current epoch in it. The publish
   loop re-reads the global epoch until the published value is current:
   a writer that advanced the epoch concurrently is then guaranteed to
   see this reader (or the reader sees the newer epoch), so the
   min-active computation below can never skip an entered reader. *)
let enter t =
  let n = Array.length t.slots in
  let rec claim i =
    if i = n then begin
      (* every slot busy: readers outnumber slots; yield and rescan *)
      Domain.cpu_relax ();
      claim 0
    end
    else if
      Atomic.get t.slots.(i) = 0
      && Atomic.compare_and_set t.slots.(i) 0 (Atomic.get t.global)
    then i
    else claim (i + 1)
  in
  let i = claim 0 in
  let rec publish () =
    let g = Atomic.get t.global in
    if Atomic.get t.slots.(i) <> g then begin
      Atomic.set t.slots.(i) g;
      publish ()
    end
  in
  publish ();
  i

let leave t guard = Atomic.set t.slots.(guard) 0

(* Smallest epoch any active reader has published; [max_int] when all
   slots are quiescent. *)
let min_active t =
  Array.fold_left
    (fun acc slot ->
      let e = Atomic.get slot in
      if e = 0 then acc else min acc e)
    max_int t.slots

let reclaim_locked t =
  let horizon = min_active t in
  let keep, free = List.partition (fun (stamp, _) -> stamp >= horizon) t.retired in
  t.retired <- keep;
  t.n_reclaimed <- t.n_reclaimed + List.length free;
  List.iter (fun (_, release) -> release ()) free;
  List.length free

(* Release every retired object no active reader can still observe;
   returns how many were released. *)
let reclaim t =
  Mutex.lock t.mutex;
  let n = reclaim_locked t in
  Mutex.unlock t.mutex;
  n

(* Retire one object: it stays on the list (keeping whatever [release]
   captured alive) until every reader active at this moment has left.
   Advances the global epoch so later readers are distinguishable from
   the ones that may still hold the object. *)
let retire t release =
  Mutex.lock t.mutex;
  t.retired <- (Atomic.get t.global, release) :: t.retired;
  t.n_retired <- t.n_retired + 1;
  ignore (Atomic.fetch_and_add t.global 1);
  if t.n_retired - t.n_reclaimed >= reclaim_every then ignore (reclaim_locked t);
  Mutex.unlock t.mutex

(* Shutdown path: release everything still on the list, regardless of
   reader slots — the caller asserts quiescence (no reader can re-enter
   a store being torn down). Returns how many were released. *)
let drain t =
  Mutex.lock t.mutex;
  let free = t.retired in
  t.retired <- [];
  t.n_reclaimed <- t.n_reclaimed + List.length free;
  List.iter (fun (_, release) -> release ()) free;
  Mutex.unlock t.mutex;
  List.length free

let active_readers t =
  Array.fold_left
    (fun acc slot -> if Atomic.get slot = 0 then acc else acc + 1)
    0 t.slots

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      retired = t.n_retired;
      reclaimed = t.n_reclaimed;
      in_flight = t.n_retired - t.n_reclaimed;
      active_readers = active_readers t;
    }
  in
  Mutex.unlock t.mutex;
  s

let current_epoch t = Atomic.get t.global
