(* Span trees. A trace keeps a stack of open spans (innermost first,
   root always last); children attach to their parent on [leave], so a
   finished trace is a plain tree with no back pointers. *)

let now () = Monotonic_clock.now ()

type t = {
  name : string;
  start_ns : int64;
  mutable stop_ns : int64;
  mutable kvs : (string * string) list;
  mutable rev_children : t list;
}

type trace = { troot : t; mutable open_spans : t list (* innermost first *) }

let root tr = tr.troot

let make_span ?at name =
  let t0 = match at with Some t -> t | None -> now () in
  { name; start_ns = t0; stop_ns = t0; kvs = []; rev_children = [] }

let start ?at name =
  let root = make_span ?at name in
  { troot = root; open_spans = [ root ] }

let innermost tr =
  match tr.open_spans with [] -> tr.troot | span :: _ -> span

let enter tr name =
  let span = make_span name in
  (innermost tr).rev_children <- span :: (innermost tr).rev_children;
  tr.open_spans <- span :: tr.open_spans

let leave tr =
  match tr.open_spans with
  | [] | [ _ ] -> ()  (* the root only closes through [finish] *)
  | span :: rest ->
      span.stop_ns <- now ();
      tr.open_spans <- rest

let kv tr key value = (innermost tr).kvs <- (key, value) :: (innermost tr).kvs

let leaf tr name ns =
  let ns = if Int64.compare ns 0L < 0 then 0L else ns in
  let stop = now () in
  let span =
    { name; start_ns = Int64.sub stop ns; stop_ns = stop; kvs = []; rev_children = [] }
  in
  (innermost tr).rev_children <- span :: (innermost tr).rev_children

let finish ?at tr =
  let stop = match at with Some t -> t | None -> now () in
  List.iter (fun span -> span.stop_ns <- stop) tr.open_spans;
  tr.open_spans <- []

let children t = List.rev t.rev_children

(* First span named [name] in pre-order, the subtree root included. *)
let rec find t name =
  if String.equal t.name name then Some t
  else
    List.fold_left
      (fun acc c -> match acc with Some _ -> acc | None -> find c name)
      None (children t)

let find_kv t key =
  List.fold_left
    (fun acc (k, v) -> match acc with Some _ -> acc | None when String.equal k key -> Some v | None -> None)
    None (List.rev t.kvs)

let inclusive_ns t =
  let d = Int64.sub t.stop_ns t.start_ns in
  if Int64.compare d 0L < 0 then 0L else d

let exclusive_ns t =
  let kids =
    List.fold_left (fun acc c -> Int64.add acc (inclusive_ns c)) 0L t.rev_children
  in
  let d = Int64.sub (inclusive_ns t) kids in
  if Int64.compare d 0L < 0 then 0L else d

let iter f t =
  let rec go depth t =
    f ~depth t;
    List.iter (go (depth + 1)) (children t)
  in
  go 0 t

let us ns = Int64.to_float ns /. 1e3

let pp ppf t =
  Fmt.pf ppf "%-38s %12s %12s@." "span" "incl (us)" "excl (us)";
  iter
    (fun ~depth span ->
      let label = String.make (2 * depth) ' ' ^ span.name in
      Fmt.pf ppf "%-38s %12.1f %12.1f" label
        (us (inclusive_ns span))
        (us (exclusive_ns span));
      (match List.rev span.kvs with
      | [] -> ()
      | kvs ->
          (* literal spaces, not break hints: kvs must stay on the row *)
          Fmt.pf ppf "  [%a]"
            Fmt.(list ~sep:(any " ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
            kvs);
      Fmt.pf ppf "@.")
    t

let pp_trace ppf tr = pp ppf tr.troot
