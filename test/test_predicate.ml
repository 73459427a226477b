open Minirel_storage
open Minirel_query

let check = Alcotest.check
let vi i = Value.Int i
let t = [| vi 5; Value.Str "abc"; Value.Float 2.5 |]

let test_cmp () =
  let open Predicate in
  check Alcotest.bool "eq" true (eval (Cmp (Eq, 0, vi 5)) t);
  check Alcotest.bool "ne" true (eval (Cmp (Ne, 0, vi 6)) t);
  check Alcotest.bool "lt" true (eval (Cmp (Lt, 0, vi 6)) t);
  check Alcotest.bool "le at bound" true (eval (Cmp (Le, 0, vi 5)) t);
  check Alcotest.bool "gt" false (eval (Cmp (Gt, 0, vi 5)) t);
  check Alcotest.bool "ge at bound" true (eval (Cmp (Ge, 0, vi 5)) t);
  check Alcotest.bool "string eq" true (eval (Cmp (Eq, 1, Value.Str "abc")) t)

let test_in_set_interval () =
  let open Predicate in
  check Alcotest.bool "in set" true (eval (In_set (0, [ vi 1; vi 5 ])) t);
  check Alcotest.bool "not in set" false (eval (In_set (0, [ vi 1; vi 2 ])) t);
  check Alcotest.bool "in interval" true
    (eval (In_interval (0, Interval.closed ~lo:(vi 0) ~hi:(vi 5))) t);
  check Alcotest.bool "not in interval" false
    (eval (In_interval (0, Interval.open_ ~lo:(vi 5) ~hi:(vi 9))) t)

let test_boolean_combinators () =
  let open Predicate in
  let p = And [ Cmp (Eq, 0, vi 5); Or [ Cmp (Eq, 1, Value.Str "zzz"); True ] ] in
  check Alcotest.bool "and/or/true" true (eval p t);
  check Alcotest.bool "not" false (eval (Not p) t);
  check Alcotest.bool "empty and" true (eval (And []) t);
  check Alcotest.bool "empty or" false (eval (Or []) t)

let test_shift () =
  let open Predicate in
  let p = Cmp (Eq, 0, vi 5) in
  let joined = Tuple.concat [| Value.Str "pad" |] t in
  check Alcotest.bool "shifted position" true (eval (shift 1 p) joined);
  check Alcotest.bool "shift composes" true
    (eval (shift 1 (And [ p; In_set (1, [ Value.Str "abc" ]) ])) joined)

let test_positions () =
  let open Predicate in
  let p = And [ Cmp (Eq, 0, vi 1); Or [ In_set (3, []); Not (In_interval (7, Interval.full)) ] ] in
  check (Alcotest.list Alcotest.int) "positions" [ 0; 3; 7 ]
    (List.sort_uniq Int.compare (positions p));
  check (Alcotest.list Alcotest.int) "true has none" [] (positions True)

let test_conj () =
  let open Predicate in
  check Alcotest.bool "conj [] is true" true (conj [] = True);
  let p = Cmp (Eq, 0, vi 5) in
  check Alcotest.bool "conj singleton unwraps" true (conj [ p ] = p)

(* The closure-based definition [Predicate.eval] replaced, kept as the
   reference the closure-free walk must agree with. *)
let rec reference_eval p (tuple : Tuple.t) =
  let open Predicate in
  match p with
  | True -> true
  | Cmp (op, pos, v) -> (
      let c = Value.compare tuple.(pos) v in
      match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0)
  | In_set (pos, vs) -> List.exists (Value.equal tuple.(pos)) vs
  | In_interval (pos, iv) -> Interval.contains iv tuple.(pos)
  | And ps -> List.for_all (fun p -> reference_eval p tuple) ps
  | Or ps -> List.exists (fun p -> reference_eval p tuple) ps
  | Not p -> not (reference_eval p tuple)

(* Random predicate trees over positions 0..3. *)
let gen_pred =
  let open QCheck2.Gen in
  let v = Helpers.gen_value in
  let pos = int_range 0 3 in
  let lower =
    oneof [ return Interval.Neg_inf; map (fun x -> Interval.L_incl x) v; map (fun x -> Interval.L_excl x) v ]
  in
  let upper =
    oneof [ return Interval.Pos_inf; map (fun x -> Interval.U_incl x) v; map (fun x -> Interval.U_excl x) v ]
  in
  let leaf =
    oneof
      [
        return Predicate.True;
        map3
          (fun op p x -> Predicate.Cmp (op, p, x))
          (oneofl Predicate.[ Eq; Ne; Lt; Le; Gt; Ge ])
          pos v;
        map2 (fun p xs -> Predicate.In_set (p, xs)) pos (list_size (int_range 0 3) v);
        map3 (fun p lo hi -> Predicate.In_interval (p, Interval.make lo hi)) pos lower upper;
      ]
  in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun ps -> Predicate.And ps) (list_size (int_range 0 3) (self (n / 2)));
               map (fun ps -> Predicate.Or ps) (list_size (int_range 0 3) (self (n / 2)));
               map (fun p -> Predicate.Not p) (self (n - 1));
             ])

let prop_eval_matches_reference =
  QCheck2.Test.make ~name:"eval == closure-based reference" ~count:1000
    ~print:(fun (p, t) -> Fmt.str "%a on %a" Predicate.pp p Tuple.pp t)
    QCheck2.Gen.(pair gen_pred (Helpers.gen_tuple ~arity:(int_range 4 6) ()))
    (fun (p, t) -> Predicate.eval p t = reference_eval p t)

let test_pinned_value () =
  let open Predicate in
  let pinned p = Option.map Value.to_string (pinned_value 2 p) in
  let some = Alcotest.(option string) in
  check some "eq" (Some "7") (pinned (Cmp (Eq, 2, vi 7)));
  check some "singleton in" (Some "7") (pinned (In_set (2, [ vi 7 ])));
  check some "inside and" (Some "7")
    (pinned (And [ Cmp (Lt, 0, vi 3); Or [ True ]; Cmp (Eq, 2, vi 7) ]));
  check some "first conjunct wins" (Some "7")
    (pinned (And [ Cmp (Eq, 2, vi 7); Cmp (Eq, 2, vi 8) ]));
  check some "other attribute" None (pinned (Cmp (Eq, 1, vi 7)));
  check some "range" None (pinned (Cmp (Le, 2, vi 7)));
  check some "multi-value in" None (pinned (In_set (2, [ vi 7; vi 8 ])));
  check some "or" None (pinned (Or [ Cmp (Eq, 2, vi 7) ]));
  check some "not" None (pinned (Not (Cmp (Ne, 2, vi 7))));
  check some "nested and under or" None (pinned (Or [ And [ Cmp (Eq, 2, vi 7) ] ]))

let suite =
  [
    Alcotest.test_case "comparisons" `Quick test_cmp;
    Alcotest.test_case "in set / interval" `Quick test_in_set_interval;
    Alcotest.test_case "boolean combinators" `Quick test_boolean_combinators;
    Alcotest.test_case "shift" `Quick test_shift;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "conj" `Quick test_conj;
    Alcotest.test_case "pinned value" `Quick test_pinned_value;
    QCheck_alcotest.to_alcotest prop_eval_matches_reference;
  ]
