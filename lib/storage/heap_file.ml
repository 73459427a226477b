(* Heap files: a growable array of slotted pages holding one relation.
   Every page touch goes through the owning buffer pool so that scans,
   fetches and mutations are charged logical I/Os. *)

type t = {
  schema : Schema.t;
  slots_per_page : int;
  pool : Buffer_pool.t;
  file_id : int;
  mutable pages : Page.t array;  (* prefix [0, n_pages) is valid *)
  mutable n_pages : int;
  mutable with_space : int list;  (* pages known to have a free slot *)
  mutable n_tuples : int;
}

let default_slots_per_page = 64

let create ?(slots_per_page = default_slots_per_page) pool schema =
  if slots_per_page <= 0 || slots_per_page > Rid.max_slots then
    invalid_arg "Heap_file.create: slots_per_page";
  {
    schema;
    slots_per_page;
    pool;
    file_id = Buffer_pool.register_file pool;
    pages = [||];
    n_pages = 0;
    with_space = [];
    n_tuples = 0;
  }

let schema t = t.schema
let file_id t = t.file_id
let n_pages t = t.n_pages
let n_tuples t = t.n_tuples

let size_bytes t =
  let total = ref 0 in
  for p = 0 to t.n_pages - 1 do
    Page.iter t.pages.(p) (fun _ tuple -> total := !total + Tuple.size_bytes tuple)
  done;
  !total

let touch t page mode = Buffer_pool.access t.pool ~file:t.file_id ~page ~mode

let grow t =
  let id = t.n_pages in
  if id >= Array.length t.pages then begin
    let cap = max 8 (2 * Array.length t.pages) in
    let fresh =
      Array.init cap (fun i ->
          if i < t.n_pages then t.pages.(i)
          else Page.create ~id:i ~slots_per_page:t.slots_per_page)
    in
    t.pages <- fresh
  end;
  t.n_pages <- id + 1;
  id

(* Pop a page that still has room, allocating one if necessary. *)
let rec page_with_space t =
  match t.with_space with
  | p :: rest ->
      if Page.is_full t.pages.(p) then begin
        t.with_space <- rest;
        page_with_space t
      end
      else p
  | [] ->
      let p = grow t in
      t.with_space <- [ p ];
      p

let insert t tuple =
  if not (Schema.conforms t.schema tuple) then
    invalid_arg
      (Fmt.str "Heap_file.insert: tuple %a does not conform to %a" Tuple.pp tuple
         Schema.pp t.schema);
  let page = page_with_space t in
  let slot = Page.insert t.pages.(page) tuple in
  if Page.is_full t.pages.(page) then
    t.with_space <- (match t.with_space with _ :: rest -> rest | [] -> []);
  t.n_tuples <- t.n_tuples + 1;
  touch t page `Write;
  Rid.make ~page ~slot

(* @raise Not_found if the slot is free or out of range; allocates
   nothing. *)
let fetch t rid =
  let page = Rid.page rid in
  if page >= t.n_pages then raise Not_found;
  touch t page `Read;
  Page.get t.pages.(page) (Rid.slot rid)

(* @raise Not_found if the slot is empty or out of range. *)
let delete t rid =
  let p = Rid.page rid in
  if p >= t.n_pages then raise Not_found;
  let page = t.pages.(p) in
  let was_full = Page.is_full page in
  let tuple = Page.delete page (Rid.slot rid) in
  if was_full then t.with_space <- p :: t.with_space;
  t.n_tuples <- t.n_tuples - 1;
  touch t p `Write;
  tuple

(* In-place update; schema-checked. @raise Not_found if slot empty. *)
let update t rid tuple =
  if not (Schema.conforms t.schema tuple) then
    invalid_arg "Heap_file.update: tuple does not conform to schema";
  let page = Rid.page rid in
  if page >= t.n_pages then raise Not_found;
  Page.replace t.pages.(page) (Rid.slot rid) tuple;
  touch t page `Write

(* Visit the live tuples of one page, charging a single read. *)
let iter_page t page f =
  if page < 0 || page >= t.n_pages then invalid_arg "Heap_file.iter_page";
  touch t page `Read;
  Page.iter t.pages.(page) (fun slot tuple -> f (Rid.make ~page ~slot) tuple)

(* Full scan in page order, charging a read per page. *)
let iter t f =
  for p = 0 to t.n_pages - 1 do
    iter_page t p f
  done

let fold t f init =
  let acc = ref init in
  iter t (fun rid tuple -> acc := f !acc rid tuple);
  !acc
