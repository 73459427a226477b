(* Minimal JSON: the value type, a printer and a parser — enough for
   the result files this benchmark writes and reads back and for
   BENCHMARK.json. A number prints in the shortest form that reads
   back as the same float, so it keeps every digit it was measured
   with; integral values print without a fraction. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let num_to_string f =
  if not (Float.is_finite f) then invalid_arg "Json: non-finite number"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* the shortest form that reads back as the same float *)
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | Arr vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        vs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          write b (Str k);
          Buffer.add_string b ": ";
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b

exception Error of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !i)) in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\r' || s.[!i] = '\t') then begin
      incr i;
      ws ()
    end
  in
  let expect c = if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word then begin
      i := !i + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      match s.[!i] with
      | '"' -> incr i
      | '\\' ->
          if !i + 1 >= n then fail "bad escape";
          (match s.[!i + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !i + 5 >= n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!i + 2) 4) in
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code);
              i := !i + 4
          | c -> Buffer.add_char b c);
          i := !i + 2;
          go ()
      | c ->
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !i in
    while
      !i < n
      && match s.[!i] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr i
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = '}' then begin
          incr i;
          Obj []
        end
        else
          let rec members acc =
            ws ();
            let k = string () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then begin
              incr i;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          members []
    | '[' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = ']' then begin
          incr i;
          Arr []
        end
        else
          let rec elems acc =
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then begin
              incr i;
              elems (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          elems []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing characters";
  v

let read_file path =
  let ic = open_in_bin path in
  parse
    (Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

let write_file path v =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr vs -> vs | _ -> []
