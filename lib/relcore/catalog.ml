(** System catalog: the namespace of base tables and named view texts.

    Views are stored as source text (SQL or XNF) and recompiled on use,
    which matches how Starburst-era systems stored view definitions. *)

type view_def = {
  view_name : string;
  language : [ `Sql | `Xnf ];
  text : string;
}

type t = {
  tables : (string, Base_table.t) Hashtbl.t;
  views : (string, view_def) Hashtbl.t;
}

let create () = { tables = Hashtbl.create 16; views = Hashtbl.create 16 }

let normalize = String.lowercase_ascii

let add_table cat table =
  let key = normalize (Base_table.name table) in
  if Hashtbl.mem cat.tables key || Hashtbl.mem cat.views key then
    Errors.catalog_error "name %S already in use" (Base_table.name table);
  Hashtbl.add cat.tables key table

let find_table_opt cat name = Hashtbl.find_opt cat.tables (normalize name)

let find_table cat name =
  match find_table_opt cat name with
  | Some t -> t
  | None -> Errors.catalog_error "unknown table %S" name

let mem_table cat name = Hashtbl.mem cat.tables (normalize name)

let drop_table cat name =
  let key = normalize name in
  if not (Hashtbl.mem cat.tables key) then
    Errors.catalog_error "unknown table %S" name;
  Hashtbl.remove cat.tables key

let add_view cat view =
  let key = normalize view.view_name in
  if Hashtbl.mem cat.tables key || Hashtbl.mem cat.views key then
    Errors.catalog_error "name %S already in use" view.view_name;
  Hashtbl.add cat.views key view

let find_view_opt cat name = Hashtbl.find_opt cat.views (normalize name)

let drop_view cat name =
  let key = normalize name in
  if not (Hashtbl.mem cat.views key) then
    Errors.catalog_error "unknown view %S" name;
  Hashtbl.remove cat.views key

let tables cat =
  Hashtbl.fold (fun _ t acc -> t :: acc) cat.tables []
  |> List.sort (fun a b -> String.compare (Base_table.name a) (Base_table.name b))

let views cat =
  Hashtbl.fold (fun _ v acc -> v :: acc) cat.views []
  |> List.sort (fun a b -> String.compare a.view_name b.view_name)
