(* Equality-only hash index: composite key -> RID multiset. Lookups are
   charged as a single simulated page visit (one bucket). *)

module Tbl = Minirel_storage.Tuple.Table

type t = {
  tbl : Minirel_storage.Rid.t list Tbl.t;
  mutable n_entries : int;
  mutable visit : int -> unit;
  n_buckets : int;  (* simulated bucket-page count for I/O charging *)
}

let create ?(n_buckets = 1024) () =
  { tbl = Tbl.create 4096; n_entries = 0; visit = ignore; n_buckets }

let set_visit_hook t f = t.visit <- f

(* [land max_int]: a wide key's hash can overflow to a negative int,
   and a bucket is a buffer-pool page number, which must not be. *)
let bucket_of t key = (Minirel_storage.Tuple.hash key land max_int) mod t.n_buckets

let insert t key rid =
  t.visit (bucket_of t key);
  let cur = Option.value ~default:[] (Tbl.find_opt t.tbl key) in
  Tbl.replace t.tbl key (rid :: cur);
  t.n_entries <- t.n_entries + 1

let find t key =
  t.visit (bucket_of t key);
  Option.value ~default:[] (Tbl.find_opt t.tbl key)

let delete t key rid =
  t.visit (bucket_of t key);
  match Tbl.find_opt t.tbl key with
  | None -> false
  | Some rids ->
      let removed = ref false in
      let rest =
        List.filter
          (fun r ->
            if (not !removed) && Minirel_storage.Rid.equal r rid then begin
              removed := true;
              false
            end
            else true)
          rids
      in
      if !removed then begin
        (match rest with [] -> Tbl.remove t.tbl key | _ -> Tbl.replace t.tbl key rest);
        t.n_entries <- t.n_entries - 1
      end;
      !removed

let n_keys t = Tbl.length t.tbl
let n_entries t = t.n_entries

let iter t f = Tbl.iter f t.tbl
