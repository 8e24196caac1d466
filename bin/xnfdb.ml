(* xnfdb — command-line front end to the XNF composite-object DBMS.

   Subcommands:
     repl            interactive SQL/XNF shell (default)
     run FILE...     execute ';'-separated SQL/XNF scripts
                     (--connect ADDR runs them against a daemon)
     demo            preload the paper's Fig. 1 org database, then repl
     serve [FILE..]  run the socket daemon (scripts preload the db)

   Inside the shell: SQL statements and XNF queries (starting with
   OUT OF) end with ';'.  Meta commands start with '.':
     .tables .views .schema T .explain Q .extract V .save V FILE .help .quit *)

module Db = Engine.Database
module H = Xnf.Hetstream
module Ws = Cocache.Workspace

let print_result = function
  | Db.Rows (schema, rows) ->
    print_endline (Db.render schema rows);
    Printf.printf "(%d rows)\n" (List.length rows)
  | Db.Affected n -> Printf.printf "(%d rows affected)\n" n
  | Db.Done msg -> Printf.printf "%s\n" msg

let print_stream (stream : H.t) =
  List.iter
    (fun (comp, n) -> Printf.printf "  %-16s %6d tuples\n" comp n)
    (H.counts stream);
  Printf.printf "(%d stream items, %d bytes serialized)\n"
    (H.total_items stream)
    (String.length (H.serialize stream))

(** Strip a leading keyword (case-insensitive) plus the whitespace after
    it; [None] when the text does not start with it. *)
let strip_keyword (s : string) (kw : string) : string option =
  let n = String.length kw in
  if
    String.length s > n
    && String.lowercase_ascii (String.sub s 0 n) = String.lowercase_ascii kw
    && (s.[n] = ' ' || s.[n] = '\t' || s.[n] = '\n' || s.[n] = '\r')
  then Some (String.trim (String.sub s n (String.length s - n)))
  else None

(** [EXPLAIN ANALYZE OUT OF ...] / [EXPLAIN OUT OF ...] — the XNF
    analogue of the SQL affordance [Db.exec] provides. *)
let xnf_explain_target (input : string) : [ `Analyze of string | `Plain of string ] option
    =
  match strip_keyword input "EXPLAIN" with
  | None -> None
  | Some rest -> (
    match strip_keyword rest "ANALYZE" with
    | Some q when Xnf.Xnf_parser.is_xnf_text q -> Some (`Analyze q)
    | None when Xnf.Xnf_parser.is_xnf_text rest -> Some (`Plain rest)
    | _ -> None)

let execute db (input : string) =
  let trimmed = String.trim input in
  if trimmed = "" then ()
  else
    match xnf_explain_target trimmed with
    | Some (`Analyze q) -> print_endline (Xnf.Xnf_compile.explain_analyze db q)
    | Some (`Plain q) -> print_endline (Xnf.Xnf_compile.explain db q)
    | None ->
      if Xnf.Xnf_parser.is_xnf_text trimmed then
        print_stream (Xnf.Xnf_compile.run db trimmed)
      else print_result (Db.exec db trimmed)

let meta db (line : string) : bool (* continue? *) =
  let parts =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  (match parts with
  | [ ".quit" ] | [ ".exit" ] -> raise Exit
  | [ ".help" ] ->
    print_endline
      "statements end with ';'. XNF queries start with OUT OF.\n\
       meta commands:\n\
      \  .tables            list base tables\n\
      \  .views             list views\n\
      \  .schema TABLE      show a table's schema\n\
      \  .explain QUERY;    show QGM + plan (SQL) or XNF pipeline\n\
      \  .analyze QUERY;    execute and show per-operator actuals\n\
      \  .extract VIEW      extract an XNF view, show component counts\n\
      \  .save VIEW FILE    extract VIEW and persist its CO cache to FILE\n\
      \  .quit"
  | [ ".tables" ] ->
    List.iter
      (fun t ->
        Printf.printf "  %-20s %6d rows %s\n" (Relcore.Base_table.name t)
          (Relcore.Base_table.cardinality t)
          (Relcore.Schema.to_string (Relcore.Base_table.schema t)))
      (Relcore.Catalog.tables (Db.catalog db))
  | [ ".views" ] ->
    List.iter
      (fun (v : Relcore.Catalog.view_def) ->
        Printf.printf "  %-20s [%s]\n" v.Relcore.Catalog.view_name
          (match v.Relcore.Catalog.language with `Sql -> "SQL" | `Xnf -> "XNF"))
      (Relcore.Catalog.views (Db.catalog db))
  | [ ".schema"; t ] ->
    let table = Relcore.Catalog.find_table (Db.catalog db) t in
    Printf.printf "%s %s\n" t
      (Relcore.Schema.to_string (Relcore.Base_table.schema table))
  | [ ".extract"; v ] -> print_stream (Xnf.Xnf_compile.run_view db v)
  | [ ".save"; v; file ] ->
    let ws = Ws.of_stream (Xnf.Xnf_compile.run_view db v) in
    Cocache.Persist.save ws file;
    Printf.printf "cache of %s saved to %s (%d nodes, %d connections)\n" v file
      (Ws.size ws) (Ws.connection_count ws)
  | ".explain" :: rest ->
    let q = String.concat " " rest in
    let q =
      if String.length q > 0 && q.[String.length q - 1] = ';' then
        String.sub q 0 (String.length q - 1)
      else q
    in
    if Xnf.Xnf_parser.is_xnf_text q then
      print_endline (Xnf.Xnf_compile.explain db q)
    else print_endline (Db.explain db q)
  | ".analyze" :: rest ->
    let q = String.concat " " rest in
    let q =
      if String.length q > 0 && q.[String.length q - 1] = ';' then
        String.sub q 0 (String.length q - 1)
      else q
    in
    (* a bare XNF view name analyzes the stored view, mirroring .extract *)
    let q =
      if
        (not (Xnf.Xnf_parser.is_xnf_text q))
        && List.exists
             (fun (v : Relcore.Catalog.view_def) ->
               v.Relcore.Catalog.view_name = q
               && v.Relcore.Catalog.language = `Xnf)
             (Relcore.Catalog.views (Db.catalog db))
      then Xnf.Xnf_compile.view_text db q
      else q
    in
    if Xnf.Xnf_parser.is_xnf_text q then
      print_endline (Xnf.Xnf_compile.explain_analyze db q)
    else print_endline (Db.explain_analyze db q)
  | _ -> Printf.printf "unknown meta command; try .help\n");
  true

let repl db =
  print_endline
    "xnfdb — composite-object views over relational data (XNF, 1994).";
  print_endline "statements end with ';'; .help for meta commands.";
  let buf = Buffer.create 256 in
  (try
     while true do
       print_string (if Buffer.length buf = 0 then "xnfdb> " else "   ... ");
       flush stdout;
       match In_channel.input_line stdin with
       | None -> raise Exit
       | Some line ->
         let t = String.trim line in
         if Buffer.length buf = 0 && String.length t > 0 && t.[0] = '.' then (
           (* meta commands share the statement path's error contract:
              print and keep the session alive *)
           try ignore (meta db t) with
           | Relcore.Errors.Db_error (k, msg) ->
             Printf.printf "error: %s: %s\n" (Relcore.Errors.kind_to_string k)
               msg)
         else begin
           Buffer.add_string buf line;
           Buffer.add_char buf '\n';
           if String.length t > 0 && t.[String.length t - 1] = ';' then begin
             let stmt = Buffer.contents buf in
             Buffer.clear buf;
             let stmt = String.trim stmt in
             let stmt = String.sub stmt 0 (String.length stmt - 1) in
             try execute db stmt with
             | Relcore.Errors.Db_error (k, msg) ->
               Printf.printf "error: %s: %s\n" (Relcore.Errors.kind_to_string k)
                 msg
           end
         end
     done
   with Exit -> ());
  print_endline "bye."

let run_scripts db files =
  List.iter
    (fun file ->
      let text = In_channel.with_open_text file In_channel.input_all in
      List.iter
        (fun stmt ->
          try execute db stmt with
          | Relcore.Errors.Db_error (k, msg) ->
            Printf.printf "error: %s: %s\n" (Relcore.Errors.kind_to_string k)
              msg)
        (Db.split_script text))
    files

let load_demo db =
  let src = Workloads.Org.generate { Workloads.Org.default with n_depts = 8 } in
  (* copy the generated tables into this session's catalog *)
  List.iter
    (fun t -> Relcore.Catalog.add_table (Db.catalog db) t)
    (Relcore.Catalog.tables (Db.catalog src));
  ignore
    (Db.exec db ("CREATE VIEW deps_arc AS " ^ Workloads.Org.deps_arc_query));
  print_endline
    "demo database loaded: dept, emp, proj, skills, empskills, projskills; \
     XNF view deps_arc defined."

(* -- client mode --------------------------------------------------------- *)

(** Parse a connection spec: [PATH] (unix socket), [:PORT] or
    [HOST:PORT] (TCP). *)
let parse_addr (spec : string) : Unix.sockaddr =
  match String.rindex_opt spec ':' with
  | Some i when int_of_string_opt
                  (String.sub spec (i + 1) (String.length spec - i - 1))
                <> None ->
    let port =
      int_of_string (String.sub spec (i + 1) (String.length spec - i - 1))
    in
    let host = String.sub spec 0 i in
    let inet =
      if host = "" then Unix.inet_addr_loopback
      else
        try Unix.inet_addr_of_string host
        with Failure _ ->
          (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    Unix.ADDR_INET (inet, port)
  | _ -> Unix.ADDR_UNIX spec

let print_client_result = function
  | Net.Client.Rows (schema, rows) ->
    print_endline (Db.render schema rows);
    Printf.printf "(%d rows)\n" (List.length rows)
  | Net.Client.Affected n -> Printf.printf "(%d rows affected)\n" n
  | Net.Client.Done msg -> Printf.printf "%s\n" msg

let execute_remote cl (input : string) =
  let trimmed = String.trim input in
  if trimmed = "" then ()
  else
    match xnf_explain_target trimmed with
    | Some (`Analyze q) -> print_endline (Net.Client.extract_analyze cl q)
    | Some (`Plain _) ->
      print_endline "error: plain EXPLAIN of XNF is local-only; use EXPLAIN \
                     ANALYZE or run without --connect"
    | None -> (
      (* SQL EXPLAIN ANALYZE rides the dedicated analyze flag (the
         read path: no writer lock) instead of the statement path *)
      match
        Option.bind (strip_keyword trimmed "EXPLAIN") (fun r ->
            strip_keyword r "ANALYZE")
      with
      | Some q -> print_endline (Net.Client.query_analyze cl q)
      | None ->
        if Xnf.Xnf_parser.is_xnf_text trimmed then
          print_stream (Net.Client.extract cl trimmed)
        else print_client_result (Net.Client.exec cl trimmed))

let run_scripts_remote (addr : Unix.sockaddr) files =
  let cl = Net.Client.connect ~client_name:"xnfdb-cli" addr in
  Fun.protect
    ~finally:(fun () -> Net.Client.close cl)
    (fun () ->
      List.iter
        (fun file ->
          let text = In_channel.with_open_text file In_channel.input_all in
          List.iter
            (fun stmt ->
              try execute_remote cl stmt with
              | Relcore.Errors.Db_error (k, msg) ->
                Printf.printf "error: %s: %s\n"
                  (Relcore.Errors.kind_to_string k) msg
              | Net.Client.Server_error { kind; msg } ->
                Printf.printf "server error: %s: %s\n" kind msg)
            (Db.split_script text))
        files)

(* -- daemon mode --------------------------------------------------------- *)

let serve_daemon ~addr ~demo files =
  let db = Db.create () in
  if demo then load_demo db;
  run_scripts db files;
  let config = Net.Server.default_config ?addr:(Option.map parse_addr addr) () in
  let t = Net.Server.create ~config db in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle (fun _ -> Net.Server.stop t));
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Net.Server.stop t));
  (match Net.Server.sockaddr t with
  | Unix.ADDR_UNIX path -> Printf.printf "xnfdb: serving on unix:%s\n%!" path
  | Unix.ADDR_INET (h, p) ->
    Printf.printf "xnfdb: serving on tcp:%s:%d\n%!"
      (Unix.string_of_inet_addr h) p);
  Net.Server.serve t;
  print_endline "xnfdb: drained, all sessions closed; bye."

(* -- cmdliner ----------------------------------------------------------- *)

open Cmdliner

let setup_verbose verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let verbose_flag =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"trace rewrites and plans")

let repl_cmd =
  let doc = "interactive SQL/XNF shell" in
  Cmd.v (Cmd.info "repl" ~doc)
    Term.(
      const (fun verbose ->
          setup_verbose verbose;
          repl (Db.create ()))
      $ verbose_flag)

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "run against a daemon instead of in-process.  ADDR is a unix \
           socket path, :PORT, or HOST:PORT.")

let run_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let doc = "execute ';'-separated SQL/XNF script files" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun verbose connect files ->
          setup_verbose verbose;
          match connect with
          | Some spec -> run_scripts_remote (parse_addr spec) files
          | None -> run_scripts (Db.create ()) files)
      $ verbose_flag $ connect_arg $ files)

let serve_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  let addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "listen address: a unix socket path, :PORT, or HOST:PORT \
             (default $(b,XNFDB_PORT) / $(b,XNFDB_SOCKET) / \
             /tmp/xnfdb.sock).")
  in
  let demo =
    Arg.(value & flag & info [ "demo" ] ~doc:"preload the Fig. 1 demo database")
  in
  let doc =
    "run the socket daemon (SIGINT drains sessions and shuts down cleanly)"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const (fun verbose addr demo files ->
          setup_verbose verbose;
          serve_daemon ~addr ~demo files)
      $ verbose_flag $ addr $ demo $ files)

let demo_cmd =
  let doc = "preload the paper's Fig. 1 example database and open the shell" in
  Cmd.v (Cmd.info "demo" ~doc)
    Term.(
      const (fun verbose ->
          setup_verbose verbose;
          let db = Db.create () in
          load_demo db;
          repl db)
      $ verbose_flag)

let main_cmd =
  let doc = "composite-object views over relational data (XNF reproduction)" in
  let info = Cmd.info "xnfdb" ~version:"1.0.0" ~doc in
  Cmd.group ~default:Term.(const (fun () -> repl (Db.create ())) $ const ()) info
    [ repl_cmd; run_cmd; demo_cmd; serve_cmd ]

let () = exit (Cmd.eval main_cmd)
