(* Recursive-descent parser over {!Lexer} tokens producing {!Ast}. *)

open Ast

exception Error of string

let fail fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type state = { mutable tokens : Lexer.token list }

let peek st = match st.tokens with [] -> Lexer.EOF | t :: _ -> t

let advance st = match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st tok =
  let got = peek st in
  if got = tok then advance st
  else fail "expected %s but found %s" (Lexer.token_to_string tok) (Lexer.token_to_string got)

let ident st =
  match peek st with
  | Lexer.IDENT s ->
      advance st;
      s
  | t -> fail "expected an identifier, found %s" (Lexer.token_to_string t)

(* rel.attr *)
let qattr st =
  let q_rel = ident st in
  expect st Lexer.DOT;
  let q_attr = ident st in
  { q_rel; q_attr }

let literal st =
  match peek st with
  | Lexer.INT i ->
      advance st;
      L_int i
  | Lexer.FLOAT f ->
      advance st;
      L_float f
  | Lexer.STRING s ->
      advance st;
      L_str s
  | t -> fail "expected a literal, found %s" (Lexer.token_to_string t)

let cmp_of_token = function
  | Lexer.EQ -> Some Ceq
  | Lexer.NE -> Some Cne
  | Lexer.LT -> Some Clt
  | Lexer.LE -> Some Cle
  | Lexer.GT -> Some Cgt
  | Lexer.GE -> Some Cge
  | _ -> None

(* attr (= attr | op lit | BETWEEN lit AND lit | IN (lits)) *)
let atom st =
  let a = qattr st in
  match peek st with
  | Lexer.BETWEEN ->
      advance st;
      let lo = literal st in
      expect st Lexer.AND;
      let hi = literal st in
      A_between (a, lo, hi)
  | Lexer.IN ->
      advance st;
      expect st Lexer.LPAREN;
      let rec lits acc =
        let l = literal st in
        match peek st with
        | Lexer.COMMA ->
            advance st;
            lits (l :: acc)
        | _ -> List.rev (l :: acc)
      in
      let ls = lits [] in
      expect st Lexer.RPAREN;
      A_in (a, ls)
  | t -> (
      match cmp_of_token t with
      | None -> fail "expected a comparison after %a" pp_qattr a
      | Some op -> (
          advance st;
          match (op, peek st) with
          | Ceq, Lexer.IDENT _ ->
              let b = qattr st in
              A_join (a, b)
          | _, _ -> A_cmp (a, op, literal st)))

(* ( atom OR atom OR ... ) *)
let group st =
  expect st Lexer.LPAREN;
  let rec atoms acc =
    let x = atom st in
    match peek st with
    | Lexer.OR ->
        advance st;
        atoms (x :: acc)
    | _ -> List.rev (x :: acc)
  in
  let xs = atoms [] in
  expect st Lexer.RPAREN;
  W_group xs

let agg_fun_of_name name =
  match String.lowercase_ascii name with
  | "count" -> Some F_count
  | "sum" -> Some F_sum
  | "avg" -> Some F_avg
  | "min" -> Some F_min
  | "max" -> Some F_max
  | _ -> None

let select_item st =
  match peek st with
  | Lexer.STAR ->
      advance st;
      S_star
  | Lexer.IDENT name when agg_fun_of_name name <> None && (
      match st.tokens with _ :: Lexer.LPAREN :: _ -> true | _ -> false) -> (
      let f = Option.get (agg_fun_of_name name) in
      advance st;
      expect st Lexer.LPAREN;
      match peek st with
      | Lexer.STAR ->
          advance st;
          expect st Lexer.RPAREN;
          if f <> F_count then fail "only count may take *";
          S_agg (F_count, None)
      | _ ->
          let a = qattr st in
          expect st Lexer.RPAREN;
          S_agg (f, Some a))
  | _ -> S_attr (qattr st)

let from_item st =
  let rel = ident st in
  match peek st with
  | Lexer.IDENT alias ->
      advance st;
      (rel, Some alias)
  | _ -> (rel, None)

let comma_list st parse =
  let rec go acc =
    let x = parse st in
    match peek st with
    | Lexer.COMMA ->
        advance st;
        go (x :: acc)
    | _ -> List.rev (x :: acc)
  in
  go []

let rec where_item st =
  match peek st with
  | Lexer.LPAREN -> group st
  | Lexer.EXISTS ->
      advance st;
      expect st Lexer.LPAREN;
      let q = select_query st in
      expect st Lexer.RPAREN;
      W_exists q
  | _ -> W_plain (atom st)

and select_query st =
  expect st Lexer.SELECT;
  let distinct =
    match peek st with
    | Lexer.DISTINCT ->
        advance st;
        true
    | _ -> false
  in
  let select = comma_list st select_item in
  expect st Lexer.FROM;
  let from = comma_list st from_item in
  expect st Lexer.WHERE;
  let rec wheres acc =
    let w = where_item st in
    match peek st with
    | Lexer.AND ->
        advance st;
        wheres (w :: acc)
    | _ -> List.rev (w :: acc)
  in
  let where = wheres [] in
  let group_by =
    match peek st with
    | Lexer.GROUP ->
        advance st;
        expect st Lexer.BY;
        comma_list st qattr
    | _ -> []
  in
  let order_by =
    match peek st with
    | Lexer.ORDER ->
        advance st;
        expect st Lexer.BY;
        comma_list st (fun st ->
            let a = qattr st in
            match peek st with
            | Lexer.ASC ->
                advance st;
                (a, false)
            | Lexer.DESC ->
                advance st;
                (a, true)
            | _ -> (a, false))
    | _ -> []
  in
  let limit =
    match peek st with
    | Lexer.LIMIT -> (
        advance st;
        match peek st with
        | Lexer.INT n when n >= 0 ->
            advance st;
            Some n
        | t -> fail "LIMIT needs a non-negative integer, found %s" (Lexer.token_to_string t))
    | _ -> None
  in
  { distinct; select; from; where; group_by; order_by; limit }

(* Parse one query. @raise Error (or Lexer.Error) on malformed input. *)
let parse input =
  let st = { tokens = Lexer.tokenize input } in
  let q = select_query st in
  expect st Lexer.EOF;
  q

let col_ty st =
  match ident st with
  | s -> (
      match String.lowercase_ascii s with
      | "int" | "integer" -> T_int
      | "float" | "real" | "double" -> T_float
      | "string" | "text" | "varchar" -> T_string
      | other -> fail "unknown column type %S" other)

let conjunctive_atoms st =
  let rec atoms acc =
    let a = atom st in
    match peek st with
    | Lexer.AND ->
        advance st;
        atoms (a :: acc)
    | _ -> List.rev (a :: acc)
  in
  atoms []

(* Parse one top-level statement (select / explain / create table /
   create index / insert / update / delete).
   @raise Error or Lexer.Error on malformed input. *)
let parse_statement input =
  let st = { tokens = Lexer.tokenize input } in
  let statement =
    match peek st with
    | Lexer.SELECT -> St_select (select_query st)
    | Lexer.CREATE -> (
        advance st;
        match peek st with
        | Lexer.TABLE ->
            advance st;
            let table = ident st in
            expect st Lexer.LPAREN;
            let cols =
              comma_list st (fun st ->
                  let name = ident st in
                  let ty = col_ty st in
                  (name, ty))
            in
            expect st Lexer.RPAREN;
            St_create_table { table; cols }
        | Lexer.INDEX ->
            advance st;
            let index = ident st in
            expect st Lexer.ON;
            let table = ident st in
            expect st Lexer.LPAREN;
            let attrs = comma_list st ident in
            expect st Lexer.RPAREN;
            St_create_index { index; table; attrs }
        | t -> fail "expected TABLE or INDEX after CREATE, found %s" (Lexer.token_to_string t))
    | Lexer.INSERT ->
        advance st;
        expect st Lexer.INTO;
        let table = ident st in
        expect st Lexer.VALUES;
        expect st Lexer.LPAREN;
        let values = comma_list st literal in
        expect st Lexer.RPAREN;
        St_insert { table; values }
    | Lexer.DELETE -> (
        advance st;
        expect st Lexer.FROM;
        let table = ident st in
        match peek st with
        | Lexer.WHERE ->
            advance st;
            St_delete { table; where = conjunctive_atoms st }
        | _ -> St_delete { table; where = [] })
    | Lexer.UPDATE ->
        advance st;
        let table = ident st in
        expect st Lexer.SET;
        let set =
          comma_list st (fun st ->
              let col = ident st in
              expect st Lexer.EQ;
              let lit = literal st in
              (col, lit))
        in
        let where =
          match peek st with
          | Lexer.WHERE ->
              advance st;
              conjunctive_atoms st
          | _ -> []
        in
        St_update { table; set; where }
    | Lexer.EXPLAIN ->
        advance st;
        St_explain (select_query st)
    | Lexer.TRACE ->
        advance st;
        St_trace (select_query st)
    | Lexer.METRICS ->
        advance st;
        let reset =
          (* RESET is deliberately not a keyword (a column may be named
             "reset"); accept it as a bare identifier here. *)
          match peek st with
          | Lexer.IDENT id when String.lowercase_ascii id = "reset" ->
              advance st;
              true
          | _ -> false
        in
        St_metrics { reset }
    | Lexer.SLO ->
        advance st;
        (* arguments are bare identifiers, not keywords, for the same
           reason as METRICS RESET *)
        let arg =
          match peek st with
          | Lexer.IDENT id when String.lowercase_ascii id = "reset" ->
              advance st;
              Slo_reset
          | Lexer.IDENT id when String.lowercase_ascii id = "threshold" -> (
              advance st;
              match peek st with
              | Lexer.INT us when us >= 0 ->
                  advance st;
                  Slo_threshold us
              | t ->
                  fail "expected a non-negative microsecond count after SLO THRESHOLD, found %s"
                    (Lexer.token_to_string t))
          | _ -> Slo_report
        in
        St_slo { arg }
    | Lexer.FLIGHT ->
        advance st;
        let arg =
          match peek st with
          | Lexer.IDENT id when String.lowercase_ascii id = "dump" ->
              advance st;
              Flight_dump
          | Lexer.IDENT id when String.lowercase_ascii id = "reset" ->
              advance st;
              Flight_reset
          | Lexer.ON ->
              (* ON is already a keyword (CREATE INDEX ... ON) *)
              advance st;
              Flight_on
          | Lexer.IDENT id when String.lowercase_ascii id = "off" ->
              advance st;
              Flight_off
          | _ -> Flight_dump
        in
        St_flight { arg }
    | Lexer.BUDGET ->
        advance st;
        let arg =
          match peek st with
          | Lexer.IDENT id when String.lowercase_ascii id = "rebalance" ->
              advance st;
              Budget_rebalance
          | Lexer.IDENT id when String.lowercase_ascii id = "total" -> (
              advance st;
              match peek st with
              | Lexer.INT bytes when bytes > 0 ->
                  advance st;
                  Budget_total bytes
              | t ->
                  fail "expected a positive byte count after BUDGET TOTAL, found %s"
                    (Lexer.token_to_string t))
          | Lexer.IDENT id when String.lowercase_ascii id = "status" ->
              advance st;
              Budget_status
          | _ -> Budget_status
        in
        St_budget { arg }
    | t -> fail "expected a statement, found %s" (Lexer.token_to_string t)
  in
  expect st Lexer.EOF;
  statement
