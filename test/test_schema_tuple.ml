open Minirel_storage

let check = Alcotest.check

let sch =
  Schema.create "t" [ ("a", Schema.Tint); ("b", Schema.Tstr); ("c", Schema.Tfloat) ]

let test_schema_create () =
  check Alcotest.int "arity" 3 (Schema.arity sch);
  check Alcotest.string "attr name" "b" (Schema.attr_name sch 1);
  check Alcotest.int "pos" 2 (Schema.pos sch "c");
  check Alcotest.bool "mem" true (Schema.mem sch "a");
  check Alcotest.bool "not mem" false (Schema.mem sch "z");
  Alcotest.check_raises "duplicate attr"
    (Invalid_argument "Schema.create: duplicate attribute a") (fun () ->
      ignore (Schema.create "bad" [ ("a", Schema.Tint); ("a", Schema.Tstr) ]));
  Alcotest.check_raises "empty name" (Invalid_argument "Schema.create: empty relation name")
    (fun () -> ignore (Schema.create "" []));
  Alcotest.check_raises "no attributes" (Invalid_argument "Schema.create: no attributes")
    (fun () -> ignore (Schema.create "e" []))

let test_conforms () =
  check Alcotest.bool "good tuple" true
    (Schema.conforms sch [| Value.Int 1; Value.Str "x"; Value.Float 0.5 |]);
  check Alcotest.bool "null anywhere" true
    (Schema.conforms sch [| Value.Null; Value.Null; Value.Null |]);
  check Alcotest.bool "wrong type" false
    (Schema.conforms sch [| Value.Str "no"; Value.Str "x"; Value.Float 0.5 |]);
  check Alcotest.bool "wrong arity" false (Schema.conforms sch [| Value.Int 1 |])

let test_tuple_ops () =
  let t = Tuple.of_list [ Value.Int 1; Value.Str "x"; Value.Int 3 ] in
  check Alcotest.int "arity" 3 (Tuple.arity t);
  check Helpers.value "get" (Value.Str "x") (Tuple.get t 1);
  check Helpers.tuple "project"
    [| Value.Int 3; Value.Int 1 |]
    (Tuple.project t [| 2; 0 |]);
  check Helpers.tuple "concat"
    [| Value.Int 1; Value.Str "x"; Value.Int 3; Value.Int 9 |]
    (Tuple.concat t [| Value.Int 9 |]);
  check Alcotest.int "size" (8 + 4 + 1 + 8) (Tuple.size_bytes t)

let test_tuple_compare () =
  let a = [| Value.Int 1; Value.Int 2 |] and b = [| Value.Int 1; Value.Int 3 |] in
  check Alcotest.bool "lt" true (Tuple.compare a b < 0);
  check Alcotest.bool "eq" true (Tuple.compare a a = 0);
  (* prefix ordering *)
  check Alcotest.bool "prefix lt" true (Tuple.compare [| Value.Int 1 |] a < 0);
  check Alcotest.bool "equal implies same hash" true (Tuple.hash a = Tuple.hash (Array.copy a))

let test_tuple_table () =
  let tbl = Tuple.Table.create 4 in
  let k1 = [| Value.Int 1; Value.Str "a" |] in
  Tuple.Table.replace tbl k1 "one";
  (* structurally equal key resolves *)
  check (Alcotest.option Alcotest.string) "find" (Some "one")
    (Tuple.Table.find_opt tbl [| Value.Int 1; Value.Str "a" |])

let prop_project_concat =
  QCheck2.Test.make ~name:"project after concat recovers the parts" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 5) small_signed_int)
        (list_size (int_range 1 5) small_signed_int))
    (fun (xs, ys) ->
      let a = Array.of_list (List.map (fun i -> Value.Int i) xs) in
      let b = Array.of_list (List.map (fun i -> Value.Int i) ys) in
      let c = Tuple.concat a b in
      let left = Tuple.project c (Array.init (Array.length a) Fun.id) in
      let right =
        Tuple.project c (Array.init (Array.length b) (fun i -> i + Array.length a))
      in
      Tuple.equal left a && Tuple.equal right b)

(* The closure-based definition [Tuple.compare] replaced, kept as the
   reference the closure-free loop must agree with. *)
let reference_compare (a : Tuple.t) (b : Tuple.t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Mixed-type tuples of unequal length; half the pairs share a prefix. *)
let prop_compare_matches_reference =
  QCheck2.Test.make ~name:"tuple compare == closure-based reference" ~count:1000
    ~print:(fun (a, b) -> Fmt.str "%a vs %a" Tuple.pp a Tuple.pp b)
    QCheck2.Gen.(
      oneof
        [
          pair (Helpers.gen_tuple ()) (Helpers.gen_tuple ());
          map3
            (fun a k extra -> (a, Array.append (Array.sub a 0 (min k (Array.length a))) extra))
            (Helpers.gen_tuple ()) (int_range 0 5) (Helpers.gen_tuple ());
        ])
    (fun (a, b) -> Tuple.compare a b = reference_compare a b)

let suite =
  [
    Alcotest.test_case "schema create/pos" `Quick test_schema_create;
    Alcotest.test_case "schema conforms" `Quick test_conforms;
    Alcotest.test_case "tuple ops" `Quick test_tuple_ops;
    Alcotest.test_case "tuple compare/hash" `Quick test_tuple_compare;
    Alcotest.test_case "tuple hash table" `Quick test_tuple_table;
    QCheck_alcotest.to_alcotest prop_project_concat;
    QCheck_alcotest.to_alcotest prop_compare_matches_reference;
  ]
