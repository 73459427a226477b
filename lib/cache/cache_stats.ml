(* Counters shared by every replacement policy. *)

type t = {
  mutable references : int;  (** total [reference] calls *)
  mutable hits : int;        (** references that found the key resident *)
  mutable admissions : int;  (** references that made the key resident *)
  mutable rejections : int;  (** references recorded but not admitted (ghost stage) *)
  mutable evictions : int;   (** resident keys pushed out to make room *)
}

let create () =
  { references = 0; hits = 0; admissions = 0; rejections = 0; evictions = 0 }

let reset t =
  t.references <- 0;
  t.hits <- 0;
  t.admissions <- 0;
  t.rejections <- 0;
  t.evictions <- 0

(* Stable name/value pairs for telemetry registration; the same names
   appear under every source that counts with them (buffer pool, PMV store). *)
let to_list t =
  [
    ("references", t.references);
    ("hits", t.hits);
    ("admissions", t.admissions);
    ("rejections", t.rejections);
    ("evictions", t.evictions);
  ]

let hit_ratio t =
  if t.references = 0 then 0.0
  else float_of_int t.hits /. float_of_int t.references

let pp ppf t =
  Fmt.pf ppf "refs=%d hits=%d adm=%d rej=%d evict=%d (hit ratio %.4f)"
    t.references t.hits t.admissions t.rejections t.evictions (hit_ratio t)
