(** The heterogeneous result stream of an XNF query (paper Sect. 5).

    "Each tuple either represents a row of a component table or a
    connection, i.e. an instance of a relationship.  Each tuple has a
    (system generated) identifier and also a component number [...].  A
    connection tuple contains the identifiers of the connected rows."

    Tuple identity follows XNF value semantics: a component tuple used
    multiple times within a view exists only once (object sharing), so
    identifiers are assigned per distinct component-tuple value. *)

open Relcore

type tuple_id = int

type item =
  | Row of { comp : int; id : tuple_id; values : Tuple.t }
  | Conn of {
      rel : int;
      id : tuple_id;
      parent : tuple_id;
      children : tuple_id array;
      attrs : Tuple.t; (* relationship attributes, [||] when none *)
    }

(** Static description of one component of the stream. *)
type comp_info = {
  comp_no : int;
  comp_name : string;
  comp_kind : [ `Node | `Rel of rel_meta ];
  comp_schema : Schema.t;
  take_cols : string list option; (* delivery-time projection *)
  in_take : bool;
}

and rel_meta = {
  rm_role : string;
  rm_parent : string; (* component names *)
  rm_children : string list;
}

type header = {
  components : comp_info array; (* indexed by comp_no *)
  root_components : string list;
}

type t = { header : header; items : item list }

let find_comp (h : header) name =
  let found = ref None in
  Array.iter
    (fun c -> if c.comp_name = name && !found = None then found := Some c)
    h.components;
  match !found with
  | Some c -> c
  | None -> Errors.semantic_error "unknown CO component %S" name

(** The header's layout as a cache-key fragment: every component's name,
    kind, TAKE membership and column list, then the roots. *)
let header_key (h : header) : string =
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  Array.iter
    (fun c ->
      add c.comp_name;
      add
        (match c.comp_kind with
        | `Node -> ":n"
        | `Rel m ->
          Printf.sprintf ":r(%s<-%s->%s)" m.rm_parent m.rm_role
            (String.concat "," m.rm_children));
      if c.in_take then add "!";
      (match c.take_cols with
      | Some cols -> add ("[" ^ String.concat "," cols ^ "]")
      | None -> ());
      add ";")
    h.components;
  add (String.concat "," h.root_components);
  Buffer.contents buf

(** A node component's TAKE column list applied to its full rows: the
    shipped schema and the row projection.  Object identity stays with
    the full row; only delivery is projected. *)
let take_projection (full : Schema.t) (take_cols : string list option) :
    Schema.t * (Tuple.t -> Tuple.t) =
  match take_cols with
  | None -> (full, Fun.id)
  | Some cols ->
    let idxs = Array.of_list (List.map (Schema.find full) cols) in
    let schema =
      Schema.make
        (Array.to_list
           (Array.map
              (fun i ->
                let col = Schema.column_at full i in
                Schema.column ~nullable:col.Schema.nullable col.Schema.name
                  col.Schema.dtype)
              idxs))
    in
    (schema, fun row -> Tuple.project row idxs)

(** Stream statistics (used by tests and benches). *)
let counts (s : t) : (string * int) list =
  let tbl = Array.map (fun c -> (c.comp_name, ref 0)) s.header.components in
  List.iter
    (fun item ->
      let idx = match item with Row { comp; _ } -> comp | Conn { rel; _ } -> rel in
      incr (snd tbl.(idx)))
    s.items;
  Array.to_list (Array.map (fun (n, r) -> (n, !r)) tbl)

let total_items (s : t) = List.length s.items

(** Rough heap footprint — the result cache's size accounting. *)
let approx_bytes (s : t) : int =
  let value_bytes = function
    | Value.Str str -> 24 + String.length str
    | Value.Null | Value.Bool _ | Value.Int _ | Value.Float _ -> 16
  in
  let tuple_bytes vs =
    Array.fold_left (fun acc v -> acc + value_bytes v) 16 vs
  in
  List.fold_left
    (fun acc item ->
      match item with
      | Row { values; _ } -> acc + 48 + tuple_bytes values
      | Conn { children; attrs; _ } ->
        acc + 64 + (8 * Array.length children) + tuple_bytes attrs)
    256 s.items

(* -- binary serialization ---------------------------------------------- *)
(* A compact wire format: this is what "shipping the CO to the client in
   one call" means concretely; it is also reused by the CO cache's disk
   persistence. *)

(* The codec's hot loops use local refs and [for] loops, never a local
   closure or a partial application: without flambda each of those is a
   heap block per call, and every minor collection they bring on stops
   all domains — the encoding server's and the decoding client's alike. *)

let write_int buf n =
  (* zig-zag varint *)
  let n = ref ((n lsl 1) lxor (n asr 62)) in
  while !n land lnot 0x7f <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

let write_string buf s =
  write_int buf (String.length s);
  Buffer.add_string buf s

let write_value buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char buf 'N'
  | Value.Bool b ->
    Buffer.add_char buf 'B';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Int i ->
    Buffer.add_char buf 'I';
    write_int buf i
  | Value.Float f ->
    (* full 8-byte IEEE pattern: a varint of [Int64.to_int] would drop
       bit 63, flipping the sign of every negative float (and of -0.) on
       the way back in *)
    Buffer.add_char buf 'F';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
    Buffer.add_char buf 'S';
    write_string buf s

type reader = { data : string; mutable pos : int }

let read_char r =
  let c = r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_int r =
  let data = r.data in
  let pos = ref r.pos and shift = ref 0 and n = ref 0 and more = ref true in
  while !more do
    let b = Char.code data.[!pos] in
    incr pos;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  r.pos <- !pos;
  (!n lsr 1) lxor (-(!n land 1))

let read_string r =
  let len = read_int r in
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let read_value r : Value.t =
  match read_char r with
  | 'N' -> Value.Null
  | 'B' -> Value.Bool (read_char r = '\001')
  | 'I' -> Value.Int (read_int r)
  | 'F' ->
    let bits = String.get_int64_le r.data r.pos in
    r.pos <- r.pos + 8;
    Value.Float (Int64.float_of_bits bits)
  | 'S' -> Value.Str (read_string r)
  | c -> Errors.execution_error "corrupt stream: bad value tag %C" c

(* Every encoded value takes at least one byte, so a count beyond the
   bytes left is corrupt — refused before it sizes an allocation. *)
let check_count r n =
  if n < 0 || n > String.length r.data - r.pos then
    Errors.execution_error "corrupt stream: count %d at byte %d" n r.pos

(** [n] values read into a fresh array. *)
let read_values r n : Value.t array =
  check_count r n;
  let a = Array.make n Value.Null in
  for i = 0 to n - 1 do
    a.(i) <- read_value r
  done;
  a

let write_schema buf (s : Schema.t) =
  let cols = Schema.columns s in
  write_int buf (List.length cols);
  List.iter
    (fun (c : Schema.column) ->
      write_string buf c.Schema.name;
      write_string buf (Dtype.to_string c.Schema.dtype);
      write_int buf (if c.Schema.nullable then 1 else 0))
    cols

let read_schema r : Schema.t =
  let n = read_int r in
  Schema.make
    (List.init n (fun _ ->
         let name = read_string r in
         let ty = Dtype.of_string (read_string r) in
         let nullable = read_int r = 1 in
         Schema.column ~nullable name ty))

let write_header buf (h : header) =
  write_int buf (Array.length h.components);
  Array.iter
    (fun c ->
      write_int buf c.comp_no;
      write_string buf c.comp_name;
      (match c.comp_kind with
      | `Node -> write_int buf 0
      | `Rel m ->
        write_int buf 1;
        write_string buf m.rm_role;
        write_string buf m.rm_parent;
        write_int buf (List.length m.rm_children);
        List.iter (write_string buf) m.rm_children);
      write_schema buf c.comp_schema;
      (match c.take_cols with
      | None -> write_int buf (-1)
      | Some cols ->
        write_int buf (List.length cols);
        List.iter (write_string buf) cols);
      write_int buf (if c.in_take then 1 else 0))
    h.components;
  write_int buf (List.length h.root_components);
  List.iter (write_string buf) h.root_components

let read_header r : header =
  let n = read_int r in
  let components =
    Array.init n (fun _ ->
        let comp_no = read_int r in
        let comp_name = read_string r in
        let comp_kind =
          match read_int r with
          | 0 -> `Node
          | 1 ->
            let rm_role = read_string r in
            let rm_parent = read_string r in
            let k = read_int r in
            let rm_children = List.init k (fun _ -> read_string r) in
            `Rel { rm_role; rm_parent; rm_children }
          | k -> Errors.execution_error "corrupt stream: component kind %d" k
        in
        let comp_schema = read_schema r in
        let take_cols =
          match read_int r with
          | -1 -> None
          | k -> Some (List.init k (fun _ -> read_string r))
        in
        let in_take = read_int r = 1 in
        { comp_no; comp_name; comp_kind; comp_schema; take_cols; in_take })
  in
  let k = read_int r in
  let root_components = List.init k (fun _ -> read_string r) in
  { components; root_components }

(** A length, then each value. *)
let write_values buf (vs : Value.t array) =
  write_int buf (Array.length vs);
  for i = 0 to Array.length vs - 1 do
    write_value buf vs.(i)
  done

let write_item buf (item : item) =
  match item with
  | Row { comp; id; values } ->
    Buffer.add_char buf 'R';
    write_int buf comp;
    write_int buf id;
    write_values buf values
  | Conn { rel; id; parent; children; attrs } ->
    Buffer.add_char buf 'C';
    write_int buf rel;
    write_int buf id;
    write_int buf parent;
    write_int buf (Array.length children);
    for i = 0 to Array.length children - 1 do
      write_int buf children.(i)
    done;
    write_values buf attrs

let read_item r : item =
  match read_char r with
  | 'R' ->
    let comp = read_int r in
    let id = read_int r in
    let values = read_values r (read_int r) in
    Row { comp; id; values }
  | 'C' ->
    let rel = read_int r in
    let id = read_int r in
    let parent = read_int r in
    let k = read_int r in
    check_count r k;
    let children = Array.make k 0 in
    for i = 0 to k - 1 do
      children.(i) <- read_int r
    done;
    let attrs = read_values r (read_int r) in
    Conn { rel; id; parent; children; attrs }
  | c -> Errors.execution_error "corrupt stream: bad item tag %C" c

(** Serialize a stream: the single bulk message from server to client. *)
let serialize (s : t) : string =
  let buf = Buffer.create 4096 in
  write_header buf s.header;
  write_int buf (List.length s.items);
  List.iter (write_item buf) s.items;
  Buffer.contents buf

(** Structural stream equality via the wire format: headers, item order,
    tags, ids and every value byte must agree — the check the
    stream-equivalence tests rest on. *)
let equal (a : t) (b : t) = String.equal (serialize a) (serialize b)

let deserialize (data : string) : t =
  let r = { data; pos = 0 } in
  let header = read_header r in
  let n = read_int r in
  let items = List.init n (fun _ -> read_item r) in
  { header; items }
