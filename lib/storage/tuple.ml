(* Tuples are immutable-by-convention arrays of values. Query results
   and PMV entries are multisets of these, so equality, hashing and
   comparison must be structural and total. *)

type t = Value.t array

let arity (t : t) = Array.length t

let get (t : t) i = t.(i)

let of_list = Array.of_list

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

(* Lexicographic from position [i]; a top-level loop rather than a
   local closure, since B-tree descents and sorts call it per key. *)
let rec compare_from (a : t) (b : t) i =
  if i >= Array.length a then if i >= Array.length b then 0 else -1
  else if i >= Array.length b then 1
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare (a : t) (b : t) = compare_from a b 0

let hash (t : t) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

(* Project onto the given positions, in order. *)
let project (t : t) positions = Array.map (fun i -> t.(i)) positions

let concat (a : t) (b : t) : t = Array.append a b

let size_bytes (t : t) =
  Array.fold_left (fun acc v -> acc + Value.size_bytes v) 0 t

let pp ppf (t : t) =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") Value.pp) t

let to_string t = Fmt.str "%a" pp t

(* Hashtbl over tuples with structural value equality (safe for floats
   as long as NaN is not used as data, which the generators never do). *)
module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Table = Hashtbl.Make (Key)
