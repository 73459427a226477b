(* Order statistics: growable sample vectors, nearest-rank percentiles
   over every sample of a run, and the quartiles of a set of runs
   computed exactly as Python's [statistics.quantiles(values, n=4)]
   does, so [compare] judges spreads the same way external tooling
   does. *)

type 'a vec = { mutable a : 'a array; mutable n : int }

let vec () = { a = [||]; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (max 1024 (2 * v.n)) x in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let count v = v.n
let get v i = v.a.(i)

let sort a =
  Array.sort Float.compare a;
  a

(* Rank of the p-th percentile sample (1-based nearest rank). *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(rank ~n p - 1)

(* Samples strictly beyond the p-th percentile: a percentile is only
   reported with at least ten of them. *)
let beyond ~n p = if n = 0 then 0 else n - rank ~n p

let median xs =
  let a = sort (Array.of_list xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [statistics.quantiles(xs, n=4)] with the default 'exclusive'
   method: (q1, q2, q3). *)
let quartiles xs =
  let a = sort (Array.of_list xs) in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end
