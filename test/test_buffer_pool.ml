open Minirel_storage

let check = Alcotest.check

let test_read_miss_then_hit () =
  let pool = Buffer_pool.create ~capacity:4 () in
  let f = Buffer_pool.register_file pool in
  let stats = Buffer_pool.stats pool in
  Buffer_pool.access pool ~file:f ~page:0 ~mode:`Read;
  check Alcotest.int "first access misses" 1 stats.Io_stats.reads;
  Buffer_pool.access pool ~file:f ~page:0 ~mode:`Read;
  check Alcotest.int "second access hits" 1 stats.Io_stats.reads;
  check Alcotest.int "resident" 1 (Buffer_pool.resident pool)

let test_write_miss_no_read () =
  let pool = Buffer_pool.create ~capacity:4 () in
  let f = Buffer_pool.register_file pool in
  let stats = Buffer_pool.stats pool in
  Buffer_pool.access pool ~file:f ~page:0 ~mode:`Write;
  check Alcotest.int "append does not read" 0 stats.Io_stats.reads;
  Buffer_pool.flush pool;
  check Alcotest.int "dirty page flushed" 1 stats.Io_stats.writes

let test_dirty_eviction_writes () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let f = Buffer_pool.register_file pool in
  let stats = Buffer_pool.stats pool in
  Buffer_pool.access pool ~file:f ~page:0 ~mode:`Write;
  Buffer_pool.access pool ~file:f ~page:1 ~mode:`Read;
  (* pool full; bringing in page 2 evicts a page; if it is the dirty one,
     a write is charged. Touch two more to make sure page 0 leaves. *)
  Buffer_pool.access pool ~file:f ~page:2 ~mode:`Read;
  Buffer_pool.access pool ~file:f ~page:3 ~mode:`Read;
  check Alcotest.bool "dirty eviction wrote" true (stats.Io_stats.writes >= 1);
  Buffer_pool.flush pool;
  (* flushing twice writes nothing new *)
  let w = stats.Io_stats.writes in
  Buffer_pool.flush pool;
  check Alcotest.int "flush idempotent" w stats.Io_stats.writes

let test_distinct_files () =
  let pool = Buffer_pool.create ~capacity:8 () in
  let f1 = Buffer_pool.register_file pool in
  let f2 = Buffer_pool.register_file pool in
  check Alcotest.bool "fresh ids" true (f1 <> f2);
  let stats = Buffer_pool.stats pool in
  Buffer_pool.access pool ~file:f1 ~page:0 ~mode:`Read;
  Buffer_pool.access pool ~file:f2 ~page:0 ~mode:`Read;
  check Alcotest.int "same page of different files are distinct" 2 stats.Io_stats.reads

let test_invalidate_file () =
  let pool = Buffer_pool.create ~capacity:8 () in
  let f1 = Buffer_pool.register_file pool in
  let f2 = Buffer_pool.register_file pool in
  Buffer_pool.access pool ~file:f1 ~page:0 ~mode:`Read;
  Buffer_pool.access pool ~file:f2 ~page:0 ~mode:`Read;
  Buffer_pool.invalidate_file pool ~file:f1;
  check Alcotest.int "only f2 resident" 1 (Buffer_pool.resident pool);
  let stats = Buffer_pool.stats pool in
  let r = stats.Io_stats.reads in
  Buffer_pool.access pool ~file:f2 ~page:0 ~mode:`Read;
  check Alcotest.int "f2 still cached" r stats.Io_stats.reads

(* Three files, page numbers far above 2^20 (one above 2^31), a
   4-page CLOCK pool. Every count below is worked out by hand from the
   CLOCK rules: a hit sets the page's reference bit; a miss takes a free
   slot, else sweeps the hand, clearing set bits, and evicts the first
   page whose bit is clear. *)
let test_packed_keys_clock_by_hand () =
  let pool = Buffer_pool.create ~capacity:4 () in
  let f1 = Buffer_pool.register_file pool in
  let f2 = Buffer_pool.register_file pool in
  let f3 = Buffer_pool.register_file pool in
  let stats = Buffer_pool.stats pool in
  let evictions () = (Buffer_pool.policy_stats pool).Minirel_cache.Cache_stats.evictions in
  let p = (1 lsl 20) + 3 and q = (1 lsl 31) + 9 and r = 1 lsl 20 in
  let rd file page = Buffer_pool.access pool ~file ~page ~mode:`Read in
  let wr file page = Buffer_pool.access pool ~file ~page ~mode:`Write in
  let counts what reads writes evicted =
    check
      Alcotest.(triple int int int)
      what (reads, writes, evicted)
      (stats.Io_stats.reads, stats.Io_stats.writes, evictions ())
  in
  (* fill the four slots: the same page number in three files is three pages *)
  rd f1 p;
  wr f2 p;
  rd f3 p;
  rd f1 q;
  counts "fill: three read misses, the write miss is an append" 3 0 0;
  rd f1 p;
  wr f3 p;
  counts "hits charge nothing" 3 0 0;
  (* every bit is set: the hand clears all four and evicts slot 0, f1:p *)
  rd f2 q;
  counts "clean victim" 4 0 1;
  (* the hand is at slot 1, f2:p, whose bit is clear: a dirty victim *)
  rd f3 q;
  counts "dirty victim written back" 5 1 2;
  Buffer_pool.flush pool;
  counts "flush writes the one dirty page left, f3:p" 5 2 2;
  Buffer_pool.invalidate_file pool ~file:f3;
  check Alcotest.int "f3's two pages dropped" 2 (Buffer_pool.resident pool);
  rd f2 q;
  rd f1 q;
  counts "f1 and f2 stay resident" 5 2 2;
  rd f3 q;
  rd f3 p;
  counts "f3's pages read again" 7 2 2;
  (* all four bits set again: a full sweep evicts slot 2, an f3 page
     either way, and clean either way *)
  wr f1 p;
  counts "write miss evicts without a read" 7 2 3;
  (* hand at slot 3, f1:q, bit clear; then slot 0, f2:q; then slot 1 *)
  rd f2 p;
  rd f3 r;
  rd f1 q;
  counts "three clean victims in hand order" 10 2 6;
  (* the hand clears four set bits and comes back to slot 2: the dirty f1:p *)
  rd f2 q;
  counts "dirty victim after a full sweep" 11 3 7;
  Buffer_pool.flush pool;
  counts "nothing left to flush" 11 3 7;
  check Alcotest.bool "page numbers past 32 bits are refused" true
    (match rd f1 (1 lsl 32) with () -> false | exception Invalid_argument _ -> true)

(* The previous buffer pool, kept as the reference: Minirel_cache's
   CLOCK over packed page keys, with a dirty table. *)
module Ref_pool = struct
  module Policy = Minirel_cache.Policy

  type t = { policy : int Policy.t; dirty : (int, unit) Hashtbl.t; stats : Io_stats.t }

  let create ~capacity =
    let t =
      {
        policy = Minirel_cache.Clock.create ~capacity;
        dirty = Hashtbl.create 16;
        stats = Io_stats.create ();
      }
    in
    Policy.set_on_evict t.policy (fun key ->
        if Hashtbl.mem t.dirty key then begin
          Hashtbl.remove t.dirty key;
          Io_stats.add_write t.stats
        end);
    t

  let access t ~file ~page ~mode =
    let key = (file lsl 32) lor page in
    (match Policy.reference t.policy key with
    | `Resident -> ()
    | `Admitted -> Alcotest.fail "CLOCK never admits on a reference"
    | `Rejected ->
        (match mode with `Read -> Io_stats.add_read t.stats | `Write -> ());
        Policy.admit t.policy key);
    match mode with `Write -> Hashtbl.replace t.dirty key () | `Read -> ()

  let flush t =
    Hashtbl.iter (fun _ () -> Io_stats.add_write t.stats) t.dirty;
    Hashtbl.reset t.dirty
end

type pool_op = Access of int * int * [ `Read | `Write ] | Flush

let gen_pool_op =
  let open QCheck2.Gen in
  (* a few pages around 0 and a few across 2^31, so pages both hit and
     collide in the key table *)
  let page = oneof [ int_range 0 9; map (fun d -> (1 lsl 31) - 4 + d) (int_range 0 9) ] in
  let access mode = map2 (fun file page -> Access (file, page, mode)) (int_range 0 2) page in
  frequency [ (6, access `Read); (3, access `Write); (1, pure Flush) ]

let print_pool_op = function
  | Access (f, p, `Read) -> Fmt.str "read %d:%d" f p
  | Access (f, p, `Write) -> Fmt.str "write %d:%d" f p
  | Flush -> "flush"

(* Every access decision and every count equal the reference pool's,
   after every step. *)
let prop_matches_reference_clock =
  QCheck2.Test.make ~name:"clock matches the reference pool, access for access" ~count:300
    ~print:QCheck2.Print.(pair int (list print_pool_op))
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 1 200) gen_pool_op))
    (fun (capacity, ops) ->
      let pool = Buffer_pool.create ~capacity () in
      let files = Array.init 3 (fun _ -> Buffer_pool.register_file pool) in
      let reference = Ref_pool.create ~capacity in
      let counts (io : Io_stats.t) (c : Minirel_cache.Cache_stats.t) resident =
        [
          io.reads; io.writes; c.references; c.hits; c.admissions; c.rejections; c.evictions;
          resident;
        ]
      in
      List.for_all
        (fun op ->
          (match op with
          | Access (f, page, mode) ->
              Buffer_pool.access pool ~file:files.(f) ~page ~mode;
              Ref_pool.access reference ~file:f ~page ~mode
          | Flush ->
              Buffer_pool.flush pool;
              Ref_pool.flush reference);
          counts (Buffer_pool.stats pool) (Buffer_pool.policy_stats pool)
            (Buffer_pool.resident pool)
          = counts reference.stats
              (Minirel_cache.Policy.stats reference.policy)
              (Minirel_cache.Policy.size reference.policy))
        ops)

let test_io_stats_diff () =
  let s = Io_stats.create () in
  Io_stats.add_read s;
  Io_stats.add_read s;
  let snap = Io_stats.snapshot s in
  Io_stats.add_read s;
  Io_stats.add_write s;
  let d = Io_stats.diff ~before:snap s in
  check Alcotest.int "diff reads" 1 d.Io_stats.reads;
  check Alcotest.int "diff writes" 1 d.Io_stats.writes;
  check Alcotest.int "total" 4 (Io_stats.total s)

let suite =
  [
    Alcotest.test_case "read miss then hit" `Quick test_read_miss_then_hit;
    Alcotest.test_case "write miss appends" `Quick test_write_miss_no_read;
    Alcotest.test_case "dirty eviction" `Quick test_dirty_eviction_writes;
    Alcotest.test_case "distinct files" `Quick test_distinct_files;
    Alcotest.test_case "invalidate file" `Quick test_invalidate_file;
    Alcotest.test_case "io stats diff" `Quick test_io_stats_diff;
    Alcotest.test_case "packed keys: clock counts by hand" `Quick
      test_packed_keys_clock_by_hand;
    QCheck_alcotest.to_alcotest prop_matches_reference_clock;
  ]
