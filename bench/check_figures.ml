(* Checks that every figure a document quotes from BENCH_paper.json
   equals the committed artifact.  A quoted figure is a markdown link to
   the artifact whose title is the figure's key:

     [31.8×](BENCH_paper.json "f3.d200.speedup")

   The link text must start with the artifact value rounded to as many
   decimals as the text shows.  Exits 1 on a mismatch, an unknown key,
   or a document that quotes nothing.

   Usage: check_figures DOC.md BENCH_paper.json *)

let read file = In_channel.with_open_bin file In_channel.input_all

(* every [  "key": number] line of the artifact *)
let artifact_figures text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         try
           Scanf.sscanf line " %S : %[-0-9.]" (fun key num ->
               Option.map (fun v -> (key, v)) (float_of_string_opt num))
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

let marker = "](BENCH_paper.json \""

let find_from s sub i =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go i

(* (link text, key) of every quote, in document order *)
let quotes doc =
  let rec go i acc =
    match find_from doc marker i with
    | None -> List.rev acc
    | Some j ->
      let open_br = String.rindex_from doc j '[' in
      let text = String.sub doc (open_br + 1) (j - open_br - 1) in
      let k0 = j + String.length marker in
      let k1 = String.index_from doc k0 '"' in
      go (k1 + 1) ((text, String.sub doc k0 (k1 - k0)) :: acc)
  in
  go 0 []

(* the leading decimal number of a link text *)
let leading_number text =
  let n = String.length text in
  let rec stop i =
    if i < n && (match text.[i] with '0' .. '9' | '.' -> true | _ -> false)
    then stop (i + 1)
    else i
  in
  String.sub text 0 (stop 0)

let () =
  let doc_file = Sys.argv.(1) and artifact_file = Sys.argv.(2) in
  let figures = artifact_figures (read artifact_file) in
  let qs = quotes (read doc_file) in
  let errors =
    List.filter_map
      (fun (text, key) ->
        let quoted = leading_number text in
        match (List.assoc_opt key figures, String.index_opt quoted '.') with
        | None, _ -> Some (Printf.sprintf "%S: no such figure" key)
        | Some _, _ when quoted = "" ->
          Some (Printf.sprintf "%S: link text %S has no number" key text)
        | Some v, dot ->
          let decimals =
            match dot with
            | None -> 0
            | Some d -> String.length quoted - d - 1
          in
          let expected = Printf.sprintf "%.*f" decimals v in
          if expected = quoted then None
          else
            Some
              (Printf.sprintf "%S: quoted %s, %s has %s" key quoted
                 artifact_file expected))
      qs
  in
  if qs = [] then begin
    Printf.eprintf "%s quotes no figure from %s\n" doc_file artifact_file;
    exit 1
  end;
  if errors <> [] then begin
    List.iter (Printf.eprintf "%s: %s\n" doc_file) errors;
    exit 1
  end
