(* Flight recorder: an always-on black box of recent low-level events.
   Records land in one of [n_rings] per-domain ring buffers (selected
   by domain id, so concurrent writers almost never share a ring) laid
   out as flat parallel arrays of fixed-size records — recording is a
   handful of array stores, one fetch-and-add on the global sequence
   counter, and no allocation. The global sequence gives dumps a total
   order that is deterministic whenever event production is (the
   single-domain torture path), which is what makes dump digests
   reproducible across runs.

   Rings overwrite: a dump shows the most recent [ring_capacity] events
   per ring. Writers take the ring's mutex only to claim a slot (two
   stores); readers copy whole rings under the same mutex, so a dump
   never observes a half-written record. *)

let now () = Monotonic_clock.now ()

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
  | Budget_rebalance
  | Slo_breach
  | Dump_trigger

let kind_to_string = function
  | Probe_hit -> "probe.hit"
  | Probe_miss -> "probe.miss"
  | Version_publish -> "version.publish"
  | Version_distrust -> "version.distrust"
  | Epoch_advance -> "epoch.advance"
  | Epoch_reclaim -> "epoch.reclaim"
  | Stale_purge -> "stale.purge"
  | Lock_wait -> "lock.wait"
  | Fault_hit -> "fault.hit"
  | Maint_defer -> "maint.defer"
  | Maint_apply -> "maint.apply"
  | Budget_rebalance -> "budget.rebalance"
  | Slo_breach -> "slo.breach"
  | Dump_trigger -> "dump.trigger"

let kind_code = function
  | Probe_hit -> 0
  | Probe_miss -> 1
  | Version_publish -> 2
  | Version_distrust -> 3
  | Epoch_advance -> 4
  | Epoch_reclaim -> 5
  | Stale_purge -> 6
  | Lock_wait -> 7
  | Fault_hit -> 8
  | Maint_defer -> 9
  | Maint_apply -> 10
  | Budget_rebalance -> 11
  | Slo_breach -> 12
  | Dump_trigger -> 13

let n_rings = 8

(* 1024 × 8 rings = 8k recent events retained. Bigger rings remember
   further back but stream through proportionally more cache on the
   always-on record path (one line per record); 64KB per ring keeps
   the recorder invisible next to the probe working set. *)
let ring_capacity = 1024

(* One record = [stride] consecutive ints (seq, ts, kind, a, b + pad to
   a cache line): a single interleaved array instead of five parallel
   ones, so recording touches one cache line, not five — the recorder
   is always on, and its cache footprint is what the overhead gate
   (bench/exp_observability) actually measures. Timestamps are
   monotonic ns since boot, well inside OCaml's 63-bit int. *)
let stride = 8

type ring = {
  slots : int array;  (* ring_capacity records of [stride] ints *)
  mutable next : int;  (* total records ever written to this ring *)
  lock : Mutex.t;
}

let make_ring () =
  let slots = Array.make (ring_capacity * stride) 0 in
  for i = 0 to ring_capacity - 1 do
    slots.(i * stride) <- -1  (* seq < 0 = slot never written *)
  done;
  { slots; next = 0; lock = Mutex.create () }

let rings = Array.init n_rings (fun _ -> make_ring ())
let seq = Atomic.make 0
let enabled = Atomic.make true
let set_enabled on = Atomic.set enabled on
let is_enabled () = Atomic.get enabled

(* Small-string intern table so fixed-size int records can name
   failpoint sites and relations. Interning happens on rare event
   kinds (faults, lock waits), not the probe hot path. *)
let intern_lock = Mutex.create ()
let intern_tbl : (string, int) Hashtbl.t = Hashtbl.create 16
let intern_rev : (int, string) Hashtbl.t = Hashtbl.create 16

let intern s =
  Mutex.lock intern_lock;
  let id =
    match Hashtbl.find_opt intern_tbl s with
    | Some id -> id
    | None ->
        let id = Hashtbl.length intern_tbl + 1 in
        Hashtbl.add intern_tbl s id;
        Hashtbl.add intern_rev id s;
        id
  in
  Mutex.unlock intern_lock;
  id

let label_of id =
  Mutex.lock intern_lock;
  let s = Hashtbl.find_opt intern_rev id in
  Mutex.unlock intern_lock;
  match s with Some s -> s | None -> string_of_int id

let kinds_by_code =
  [|
    Probe_hit; Probe_miss; Version_publish; Version_distrust; Epoch_advance;
    Epoch_reclaim; Stale_purge; Lock_wait; Fault_hit; Maint_defer; Maint_apply;
    Budget_rebalance; Slo_breach; Dump_trigger;
  |]

let record ?(a = 0) ?(b = 0) ?ts kind =
  if Atomic.get enabled then begin
    let ring = rings.((Domain.self () :> int) land (n_rings - 1)) in
    let s = Atomic.fetch_and_add seq 1 in
    let t = Int64.to_int (match ts with Some t -> t | None -> now ()) in
    Mutex.lock ring.lock;
    let i = ring.next mod ring_capacity * stride in  (* = (next mod cap) * stride *)
    ring.next <- ring.next + 1;
    ring.slots.(i) <- s;
    ring.slots.(i + 1) <- t;
    ring.slots.(i + 2) <- kind_code kind;
    ring.slots.(i + 3) <- a;
    ring.slots.(i + 4) <- b;
    Mutex.unlock ring.lock
  end

type event = { e_seq : int; e_ts : int64; e_kind : kind; e_a : int; e_b : int }

let dump () =
  let events = ref [] in
  Array.iter
    (fun ring ->
      Mutex.lock ring.lock;
      let filled = min ring.next ring_capacity in
      for i = 0 to filled - 1 do
        let o = i * stride in
        if ring.slots.(o) >= 0 then
          events :=
            {
              e_seq = ring.slots.(o);
              e_ts = Int64.of_int ring.slots.(o + 1);
              e_kind = kinds_by_code.(ring.slots.(o + 2));
              e_a = ring.slots.(o + 3);
              e_b = ring.slots.(o + 4);
            }
            :: !events
      done;
      Mutex.unlock ring.lock)
    rings;
  (* Global sequence order == claim order; within one domain that is
     also timestamp order, so the merged log reads as a timeline. *)
  List.sort (fun x y -> compare x.e_seq y.e_seq) !events

let reset () =
  Array.iter
    (fun ring ->
      Mutex.lock ring.lock;
      for i = 0 to ring_capacity - 1 do
        ring.slots.(i * stride) <- -1
      done;
      ring.next <- 0;
      Mutex.unlock ring.lock)
    rings;
  Atomic.set seq 0

(* FNV-1a over the (kind, a, b) stream in sequence order. Timestamps
   are excluded so the digest only depends on what happened, not when —
   reproducible across runs of a deterministic campaign. *)
let digest events =
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (v land 0xff))) 0x100000001b3L
  in
  let mix_int v =
    mix v;
    mix (v lsr 8);
    mix (v lsr 16);
    mix (v lsr 24)
  in
  List.iter
    (fun e ->
      mix_int (kind_code e.e_kind);
      mix_int e.e_a;
      mix_int e.e_b)
    events;
  Fmt.str "%016Lx" !h

let pp_event ppf e =
  let label =
    match e.e_kind with
    | Fault_hit | Lock_wait | Maint_defer | Maint_apply ->
        Fmt.str " site=%s" (label_of e.e_a)
    | _ when e.e_a <> 0 || e.e_b <> 0 -> Fmt.str " a=%d b=%d" e.e_a e.e_b
    | _ -> ""
  in
  Fmt.pf ppf "#%-6d %14Ld %-16s%s" e.e_seq e.e_ts (kind_to_string e.e_kind) label

let pp_dump ppf events =
  match events with
  | [] -> Fmt.pf ppf "flight recorder: no events@."
  | es ->
      Fmt.pf ppf "flight recorder: %d events (digest %s)@." (List.length es)
        (digest es);
      List.iter (fun e -> Fmt.pf ppf "%a@." pp_event e) es
