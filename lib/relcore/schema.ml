(** Table schemas: ordered, named, typed columns.

    Column names are case-insensitive (normalised to lowercase), matching
    classic SQL catalogs. *)

type column = {
  name : string;
  dtype : Dtype.t;
  nullable : bool;
}

type t = {
  columns : column array;
  by_name : (string, int) Hashtbl.t;
}

let normalize = String.lowercase_ascii

let column ?(nullable = true) name dtype = { name = normalize name; dtype; nullable }

let make columns =
  let columns = Array.of_list columns in
  let by_name = Hashtbl.create (Array.length columns * 2) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem by_name c.name then
        Errors.catalog_error "duplicate column name %S" c.name;
      Hashtbl.add by_name c.name i)
    columns;
  { columns; by_name }

let arity s = Array.length s.columns
let columns s = Array.to_list s.columns
let column_at s i = s.columns.(i)
let column_names s = Array.to_list (Array.map (fun c -> c.name) s.columns)

let find_opt s name = Hashtbl.find_opt s.by_name (normalize name)

let find s name =
  match find_opt s name with
  | Some i -> i
  | None -> Errors.semantic_error "unknown column %S" name

let mem s name = Hashtbl.mem s.by_name (normalize name)

(** Concatenate two schemas (used for join outputs); on a duplicate name
    the right-hand column is renamed with the given prefix. *)
let concat ?(rename_dups_with = "r_") a b =
  let cols_b =
    List.map
      (fun c ->
        if mem a c.name then { c with name = rename_dups_with ^ c.name } else c)
      (columns b)
  in
  make (columns a @ cols_b)

let equal a b =
  arity a = arity b
  && Array.for_all2
       (fun c1 c2 ->
         String.equal c1.name c2.name
         && Dtype.equal c1.dtype c2.dtype
         && Bool.equal c1.nullable c2.nullable)
       a.columns b.columns

let pp fmt s =
  Format.fprintf fmt "(%s)"
    (String.concat ", "
       (List.map
          (fun c ->
            Printf.sprintf "%s %s%s" c.name
              (Dtype.to_string c.dtype)
              (if c.nullable then "" else " NOT NULL"))
          (columns s)))

let to_string s = Format.asprintf "%a" pp s

(** Validate a tuple of raw values against the schema, coercing where
    safe.  Raises on arity mismatch, type mismatch, or null in a
    non-nullable column. *)
let validate_row s (row : Value.t array) =
  if Array.length row <> arity s then
    Errors.constraint_error "row arity %d does not match schema arity %d"
      (Array.length row) (arity s);
  Array.mapi
    (fun i v ->
      let c = s.columns.(i) in
      if (not c.nullable) && Value.is_null v then
        Errors.constraint_error "null value in NOT NULL column %S" c.name;
      Dtype.coerce c.dtype v)
    row
