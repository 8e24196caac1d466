(** Runtime values of the relational engine.

    SQL three-valued logic is handled at the predicate-evaluation layer;
    here [Null] is just a distinguished value that compares below all
    non-null values (for sorting) and is never equal to anything under
    SQL equality (see {!sql_eq}). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

let is_null = function Null -> true | Bool _ | Int _ | Float _ | Str _ -> false

(* Exact comparison of [Int x] against [Float y].  Coercing the int with
   [float_of_int] rounds at |x| >= 2^53, which made the mixed order both
   lossy and non-transitive (Int 2^53 and Int 2^53+1 each compared equal
   to Float 2^53 but not to each other).  Instead compare in the integers:
   every float of magnitude >= 2^53 is integral, so [floor y] converts
   exactly whenever it is in the native int range at all.  NaN keeps its
   [Float.compare] position below every number. *)
let compare_int_float x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1 (* y >= 2^62 > max_int *)
  else if y < -0x1p62 then 1 (* y < -2^62 = min_int *)
  else begin
    let fl = Float.floor y in
    let c = Int.compare x (int_of_float fl) in
    if c <> 0 then c else if y > fl then -1 (* x = floor y < y *) else 0
  end

(** The int that carries this float's key under {!compare}/{!hash}, if
    one exists: integral floats in the native int range.  Floats outside
    that range compare equal to no int at all. *)
let int_key_of_float f =
  if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then Some (int_of_float f)
  else None

(** Total order used for sorting and index organisation (not SQL
    comparison): Null < Bool < Int/Float (numeric order) < Str. *)
let compare a b =
  let rank = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ | Float _ -> 2
    | Str _ -> 3
  in
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | Str x, Str y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | Str _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(** SQL equality: [None] when either side is null (unknown). *)
let sql_eq a b =
  if is_null a || is_null b then None else Some (compare a b = 0)

(** SQL comparison: [None] when either side is null. *)
let sql_compare a b =
  if is_null a || is_null b then None else Some (compare a b)

let hash = function
  | Null -> 0
  | Bool b -> Bool.to_int b + 11
  | Int i -> Hashtbl.hash i
  | Float f ->
    (* Hash integral floats like the equal int so Int 3 and Float 3.0,
       which compare equal, also hash equal.  The range test must match
       {!compare} exactly: only floats in the native int range compare
       equal to an int (the old [abs f < 1e18] cutoff overshot the
       63-bit int range, so e.g. Float 2^62 hashed as a wrapped int
       while comparing equal to no int). *)
    (match int_key_of_float f with
    | Some i -> Hashtbl.hash i
    | None -> Hashtbl.hash f)
  | Str s -> Hashtbl.hash s

let to_string = function
  | Null -> "NULL"
  | Bool b -> if b then "TRUE" else "FALSE"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

(** SQL-literal rendering: strings get quoted and escaped. *)
let to_literal = function
  | Str s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c ->
        if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  | v -> to_string v

let pp fmt v = Format.pp_print_string fmt (to_string v)

let as_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | v -> Errors.type_error "expected INT, got %s" (to_string v)

let as_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> Errors.type_error "expected FLOAT, got %s" (to_string v)

let as_string = function
  | Str s -> s
  | v -> Errors.type_error "expected STRING, got %s" (to_string v)
