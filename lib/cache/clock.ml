(* CLOCK (second-chance) replacement, the paper's default manager for the
   basic condition parts stored in a PMV (Section 3.2).

   Resident keys live in a circular array of slots, each with a reference
   bit. A hit sets the bit; admission fills a free slot if one exists,
   otherwise sweeps the hand, clearing bits, and evicts the first slot
   found with a clear bit. *)

type 'k slot = { mutable key : 'k option; mutable refbit : bool }

type 'k state = {
  mutable slots : 'k slot array;
  pos : ('k, int) Hashtbl.t;  (* key -> slot index *)
  mutable hand : int;
  mutable free : int list;  (* empty slot indexes *)
  mutable on_evict : 'k -> unit;
  stats : Cache_stats.t;
}

(* Sweep the hand until a slot with a clear reference bit is found,
   clearing bits on the way. Terminates: after one full revolution every
   bit is clear. Only called when no slot is free, so every slot holds a
   key. *)
let find_victim st =
  let n = Array.length st.slots in
  let rec sweep () =
    let i = st.hand in
    st.hand <- (st.hand + 1) mod n;
    let s = st.slots.(i) in
    if s.refbit then begin
      s.refbit <- false;
      sweep ()
    end
    else i
  in
  sweep ()

let evict_at st i =
  let s = st.slots.(i) in
  match s.key with
  | None -> ()
  | Some k ->
      s.key <- None;
      s.refbit <- false;
      Hashtbl.remove st.pos k;
      st.stats.Cache_stats.evictions <- st.stats.Cache_stats.evictions + 1;
      st.on_evict k

let admit st k =
  let i =
    match st.free with
    | i :: rest ->
        st.free <- rest;
        i
    | [] ->
        let i = find_victim st in
        evict_at st i;
        i
  in
  let s = st.slots.(i) in
  s.key <- Some k;
  s.refbit <- true;
  Hashtbl.replace st.pos k i

(* Rebuild the circular array at the new size. Shrinking first evicts
   by the normal hand sweep until the survivors fit; the rebuild packs
   surviving slots in hand order (so second-chance order is preserved)
   and resets the hand to the front. *)
let resize st n =
  let old_n = Array.length st.slots in
  if n <> old_n then begin
    while Hashtbl.length st.pos > n do
      evict_at st (find_victim st)
    done;
    let slots = Array.init n (fun _ -> { key = None; refbit = false }) in
    let filled = ref 0 in
    for d = 0 to old_n - 1 do
      let s = st.slots.((st.hand + d) mod old_n) in
      match s.key with
      | Some k ->
          slots.(!filled).key <- Some k;
          slots.(!filled).refbit <- s.refbit;
          Hashtbl.replace st.pos k !filled;
          incr filled
      | None -> ()
    done;
    st.slots <- slots;
    st.hand <- 0;
    st.free <- List.init (n - !filled) (fun i -> n - 1 - i)
  end

let create ~capacity : 'k Policy.t =
  if capacity <= 0 then invalid_arg "Clock.create: capacity must be positive";
  let st =
    {
      slots = Array.init capacity (fun _ -> { key = None; refbit = false });
      pos = Hashtbl.create (2 * capacity);
      hand = 0;
      free = List.init capacity (fun i -> i);
      on_evict = ignore;
      stats = Cache_stats.create ();
    }
  in
  let mem k = Hashtbl.mem st.pos k in
  let reference k =
    st.stats.Cache_stats.references <- st.stats.Cache_stats.references + 1;
    (* [find], not [find_opt]: a hit allocates no option *)
    match Hashtbl.find st.pos k with
    | i ->
        st.slots.(i).refbit <- true;
        st.stats.Cache_stats.hits <- st.stats.Cache_stats.hits + 1;
        `Resident
    | exception Not_found ->
        st.stats.Cache_stats.rejections <- st.stats.Cache_stats.rejections + 1;
        `Rejected
  in
  let admit k =
    if not (Hashtbl.mem st.pos k) then begin
      admit st k;
      st.stats.Cache_stats.admissions <- st.stats.Cache_stats.admissions + 1
    end
  in
  let remove k =
    match Hashtbl.find_opt st.pos k with
    | None -> ()
    | Some i ->
        let s = st.slots.(i) in
        s.key <- None;
        s.refbit <- false;
        Hashtbl.remove st.pos k;
        st.free <- i :: st.free
  in
  let size () = Hashtbl.length st.pos in
  let iter f = Hashtbl.iter (fun k _ -> f k) st.pos in
  let set_on_evict f = st.on_evict <- f in
  {
    Policy.name = "clock";
    capacity;
    admit_on_fill = true;
    mem;
    reference;
    admit;
    remove;
    size;
    iter;
    set_on_evict;
    resize = (fun n -> resize st n);
    stats = st.stats;
  }
