(* A slotted page: a fixed number of slots, each either free or holding
   one tuple. Pages are the unit of buffer-pool residency and therefore
   the unit of simulated I/O.

   A slot holds its tuple directly; the one shared empty array [free]
   marks a free slot, so reading a slot follows no option box. *)

type t = {
  id : int;
  slots : Tuple.t array;
  mutable live : int;  (* occupied slots *)
}

let free : Tuple.t = [||]

let create ~id ~slots_per_page =
  if slots_per_page <= 0 then invalid_arg "Page.create: slots_per_page";
  { id; slots = Array.make slots_per_page free; live = 0 }

let capacity t = Array.length t.slots
let live t = t.live
let is_full t = t.live >= Array.length t.slots

(* @raise Not_found when the slot is free or out of range. *)
let get t slot =
  if slot < 0 || slot >= Array.length t.slots then raise Not_found;
  let tuple = t.slots.(slot) in
  if tuple == free then raise Not_found;
  tuple

(* An empty tuple may be the very array that marks a free slot. *)
let check_storable fn tuple = if Array.length tuple = 0 then invalid_arg (fn ^ ": empty tuple")

(* Store [tuple] in the first free slot. @raise Invalid_argument if full. *)
let insert t tuple =
  check_storable "Page.insert" tuple;
  let rec find i =
    if i >= Array.length t.slots then invalid_arg "Page.insert: page full"
    else if t.slots.(i) == free then i
    else find (i + 1)
  in
  let slot = find 0 in
  t.slots.(slot) <- tuple;
  t.live <- t.live + 1;
  slot

(* Free the slot. Returns the tuple that was there. @raise Not_found *)
let delete t slot =
  let tuple = get t slot in
  t.slots.(slot) <- free;
  t.live <- t.live - 1;
  tuple

let replace t slot tuple =
  check_storable "Page.replace" tuple;
  ignore (get t slot);
  t.slots.(slot) <- tuple

let iter t f =
  for slot = 0 to Array.length t.slots - 1 do
    let tuple = t.slots.(slot) in
    if tuple != free then f slot tuple
  done
