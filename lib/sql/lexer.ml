(* Hand-written lexer for the SQL subset. Case-insensitive keywords,
   single-quoted strings with '' escapes, ints and floats, and the
   operator set the template grammar needs. *)

type token =
  | SELECT
  | FROM
  | WHERE
  | AND
  | OR
  | BETWEEN
  | IN
  | CREATE
  | TABLE
  | INDEX
  | ON
  | INSERT
  | INTO
  | VALUES
  | DELETE
  | UPDATE
  | SET
  | DISTINCT
  | EXISTS
  | EXPLAIN
  | TRACE
  | METRICS
  | SLO
  | FLIGHT
  | BUDGET
  | GROUP
  | ORDER
  | BY
  | ASC
  | DESC
  | LIMIT
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | COMMA
  | DOT
  | LPAREN
  | RPAREN
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | STAR
  | EOF

let token_to_string = function
  | SELECT -> "SELECT"
  | FROM -> "FROM"
  | WHERE -> "WHERE"
  | AND -> "AND"
  | OR -> "OR"
  | BETWEEN -> "BETWEEN"
  | IN -> "IN"
  | CREATE -> "CREATE"
  | TABLE -> "TABLE"
  | INDEX -> "INDEX"
  | ON -> "ON"
  | INSERT -> "INSERT"
  | INTO -> "INTO"
  | VALUES -> "VALUES"
  | DELETE -> "DELETE"
  | UPDATE -> "UPDATE"
  | SET -> "SET"
  | DISTINCT -> "DISTINCT"
  | EXISTS -> "EXISTS"
  | EXPLAIN -> "EXPLAIN"
  | TRACE -> "TRACE"
  | METRICS -> "METRICS"
  | SLO -> "SLO"
  | FLIGHT -> "FLIGHT"
  | BUDGET -> "BUDGET"
  | GROUP -> "GROUP"
  | ORDER -> "ORDER"
  | BY -> "BY"
  | ASC -> "ASC"
  | DESC -> "DESC"
  | LIMIT -> "LIMIT"
  | IDENT s -> Fmt.str "identifier %S" s
  | INT i -> Fmt.str "integer %d" i
  | FLOAT f -> Fmt.str "float %g" f
  | STRING s -> Fmt.str "string %S" s
  | COMMA -> "','"
  | DOT -> "'.'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | EQ -> "'='"
  | NE -> "'<>'"
  | LT -> "'<'"
  | LE -> "'<='"
  | GT -> "'>'"
  | GE -> "'>='"
  | STAR -> "'*'"
  | EOF -> "end of input"

exception Error of string

let fail fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let keyword_of_string s =
  match String.lowercase_ascii s with
  | "select" -> Some SELECT
  | "from" -> Some FROM
  | "where" -> Some WHERE
  | "and" -> Some AND
  | "or" -> Some OR
  | "between" -> Some BETWEEN
  | "in" -> Some IN
  | "create" -> Some CREATE
  | "table" -> Some TABLE
  | "index" -> Some INDEX
  | "on" -> Some ON
  | "insert" -> Some INSERT
  | "into" -> Some INTO
  | "values" -> Some VALUES
  | "delete" -> Some DELETE
  | "update" -> Some UPDATE
  | "set" -> Some SET
  | "distinct" -> Some DISTINCT
  | "exists" -> Some EXISTS
  | "explain" -> Some EXPLAIN
  | "trace" -> Some TRACE
  | "metrics" -> Some METRICS
  | "slo" -> Some SLO
  | "flight" -> Some FLIGHT
  | "budget" -> Some BUDGET
  | "group" -> Some GROUP
  | "order" -> Some ORDER
  | "by" -> Some BY
  | "asc" -> Some ASC
  | "desc" -> Some DESC
  | "limit" -> Some LIMIT
  | _ -> None

(* Tokenise the whole input. @raise Error on malformed input. *)
let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      let word = String.sub input start (!i - start) in
      emit (match keyword_of_string word with Some kw -> kw | None -> IDENT word)
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit input.[!i + 1]) then begin
      let start = !i in
      if c = '-' then incr i;
      while !i < n && is_digit input.[!i] do
        incr i
      done;
      let is_float = ref false in
      if !i < n && input.[!i] = '.' && !i + 1 < n && is_digit input.[!i + 1] then begin
        is_float := true;
        incr i;
        while !i < n && is_digit input.[!i] do
          incr i
        done
      end;
      (* optional exponent: e or E, optional sign, digits *)
      if
        !i < n
        && (input.[!i] = 'e' || input.[!i] = 'E')
        &&
        let j = if !i + 1 < n && (input.[!i + 1] = '+' || input.[!i + 1] = '-') then !i + 2 else !i + 1 in
        j < n && is_digit input.[j]
      then begin
        is_float := true;
        incr i;
        if input.[!i] = '+' || input.[!i] = '-' then incr i;
        while !i < n && is_digit input.[!i] do
          incr i
        done
      end;
      let text = String.sub input start (!i - start) in
      if !is_float then emit (FLOAT (float_of_string text)) else emit (INT (int_of_string text))
    end
    else if c = '\'' then begin
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf input.[!i];
          incr i
        end
      done;
      if not !closed then fail "unterminated string literal";
      emit (STRING (Buffer.contents buf))
    end
    else begin
      let two = if !i + 1 < n then String.sub input !i 2 else "" in
      match two with
      | "<=" ->
          emit LE;
          i := !i + 2
      | ">=" ->
          emit GE;
          i := !i + 2
      | "<>" | "!=" ->
          emit NE;
          i := !i + 2
      | _ -> (
          incr i;
          match c with
          | ',' -> emit COMMA
          | '.' -> emit DOT
          | '(' -> emit LPAREN
          | ')' -> emit RPAREN
          | '=' -> emit EQ
          | '<' -> emit LT
          | '>' -> emit GT
          | '*' -> emit STAR
          | ';' -> ()  (* trailing semicolons are permitted and ignored *)
          | _ -> fail "unexpected character %C" c)
    end
  done;
  emit EOF;
  List.rev !tokens
