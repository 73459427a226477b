(* SplitMix64: a tiny, fast, deterministic PRNG. Every experiment and
   fault-injection campaign is seeded so that paper-figure regeneration
   and torture replays are reproducible run to run.

   This is the leaf copy: both the workload generators and the fault
   registry depend on it, so it must not depend on any other minirel
   library. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

(* Seed from a raw 64-bit state, e.g. a stream derived by hashing. *)
let of_int64 state = { state }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform float in [0, 1). *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

(* Uniform int in [0, bound). @raise Invalid_argument if bound <= 0. *)
let int t ~bound =
  if bound <= 0 then invalid_arg "Split_mix.int: bound must be positive";
  (* mask the native sign bit: Int64.to_int keeps the low 63 bits, whose
     top bit would otherwise make the result negative *)
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

(* Uniform int in [lo, hi]. *)
let int_range t ~lo ~hi =
  if hi < lo then invalid_arg "Split_mix.int_range";
  lo + int t ~bound:(hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* [n] distinct ints sampled by [draw]; gives up (returns fewer) only if
   the domain is too small after many retries. *)
let distinct t ~n draw =
  let seen = Hashtbl.create (2 * n) in
  let rec go acc count tries =
    if count >= n || tries > 1000 * n then List.rev acc
    else
      let x = draw t in
      if Hashtbl.mem seen x then go acc count (tries + 1)
      else begin
        Hashtbl.replace seen x ();
        go (x :: acc) (count + 1) (tries + 1)
      end
  in
  go [] 0 0

(* Fisher-Yates shuffle, in place. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
