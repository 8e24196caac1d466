(* Checks that README.md's "Environment knobs" table names exactly the
   XNFDB_* variables the library reads.  A knob the code reads is a
   string literal "XNFDB_..." in a source file; a documented knob is the
   first cell of a row of the table under the "### Environment knobs"
   heading.  Exits 1 listing every name found on one side only, or when
   either side names nothing.

   Usage: check_knobs README.md SOURCE.ml... *)

let read file = In_channel.with_open_bin file In_channel.input_all

let is_name_char = function 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* every XNFDB_* name in [s] that directly follows [before] and is
   directly followed by [after] *)
let names ~before ~after s =
  let tag = before ^ "XNFDB_" in
  let n = String.length s and m = String.length tag in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m <> tag then go (i + 1) acc
    else begin
      let j = ref (i + m) in
      while !j < n && is_name_char s.[!j] do
        incr j
      done;
      let name = String.sub s (i + String.length before) (!j - i - String.length before) in
      let closed =
        !j + String.length after <= n
        && String.sub s !j (String.length after) = after
      in
      go !j (if closed then name :: acc else acc)
    end
  in
  go 0 []

(* the rows of the table under the knobs heading: from the heading to
   the first blank line after the table's rows *)
let knob_rows readme =
  let rec skip = function
    | [] -> []
    | l :: rest when String.trim l = "### Environment knobs" -> rest
    | _ :: rest -> skip rest
  in
  let rec rows acc = function
    | l :: rest when String.length l > 0 && l.[0] = '|' -> rows (l :: acc) rest
    | l :: rest when acc = [] && String.trim l = "" -> rows acc rest
    | _ -> List.rev acc
  in
  rows [] (skip (String.split_on_char '\n' readme))

let () =
  let readme = Sys.argv.(1) in
  let sources = List.tl (List.tl (Array.to_list Sys.argv)) in
  let documented =
    List.concat_map
      (fun row ->
        match String.split_on_char '|' row with
        | _ :: first :: _ -> names ~before:"`" ~after:"`" first
        | _ -> [])
      (knob_rows (read readme))
    |> List.sort_uniq compare
  in
  let read_by_code =
    List.concat_map (fun f -> names ~before:"\"" ~after:"\"" (read f)) sources
    |> List.sort_uniq compare
  in
  let missing what names other =
    List.filter_map
      (fun k ->
        if List.mem k other then None else Some (Printf.sprintf "%s: %s" k what))
      names
  in
  let errors =
    missing "read by the code but not in the table" read_by_code documented
    @ missing "in the table but read by no source" documented read_by_code
  in
  if documented = [] || read_by_code = [] then begin
    Printf.eprintf "%s: no knobs found (table %d, code %d)\n" readme
      (List.length documented) (List.length read_by_code);
    exit 1
  end;
  if errors <> [] then begin
    List.iter (Printf.eprintf "%s: %s\n" readme) errors;
    exit 1
  end
