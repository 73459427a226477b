(* Relation schemas: ordered, named, typed attributes. *)

type ty = Tint | Tfloat | Tstr

let ty_to_string = function Tint -> "int" | Tfloat -> "float" | Tstr -> "string"

let ty_matches ty v =
  match (ty, v) with
  | _, Value.Null -> true
  | Tint, Value.Int _ -> true
  | Tfloat, Value.Float _ -> true
  | Tstr, Value.Str _ -> true
  | _ -> false

type attr = { a_name : string; a_ty : ty }

type t = { name : string; attrs : attr array }

let create name attrs =
  if name = "" then invalid_arg "Schema.create: empty relation name";
  (* a page stores no empty tuple: the empty array marks a free slot *)
  if attrs = [] then invalid_arg "Schema.create: no attributes";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (a_name, _) ->
      if Hashtbl.mem seen a_name then
        invalid_arg (Fmt.str "Schema.create: duplicate attribute %s" a_name);
      Hashtbl.replace seen a_name ())
    attrs;
  {
    name;
    attrs = Array.of_list (List.map (fun (a_name, a_ty) -> { a_name; a_ty }) attrs);
  }

let name t = t.name
let arity t = Array.length t.attrs

let attr_name t i = t.attrs.(i).a_name
let attr_ty t i = t.attrs.(i).a_ty

(* Position of a named attribute. @raise Not_found *)
let pos t name =
  let rec find i =
    if i >= Array.length t.attrs then raise Not_found
    else if t.attrs.(i).a_name = name then i
    else find (i + 1)
  in
  find 0

let pos_opt t name = try Some (pos t name) with Not_found -> None

let mem t name = pos_opt t name <> None

(* Whether [values] is a well-typed tuple for this schema. *)
let conforms t values =
  Array.length values = Array.length t.attrs
  && Array.for_all2 (fun a v -> ty_matches a.a_ty v) t.attrs values

let pp ppf t =
  Fmt.pf ppf "%s(%a)" t.name
    Fmt.(array ~sep:comma (fun ppf a -> pf ppf "%s:%s" a.a_name (ty_to_string a.a_ty)))
    t.attrs
