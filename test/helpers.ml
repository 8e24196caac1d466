(** Shared fixtures and assertion helpers for the test suites. *)

open Relcore

let value_testable : Value.t Alcotest.testable =
  Alcotest.testable (fun fmt v -> Value.pp fmt v) Value.equal

let tuple_testable : Tuple.t Alcotest.testable =
  Alcotest.testable (fun fmt t -> Tuple.pp fmt t) Tuple.equal

let check_rows msg expected actual =
  Alcotest.(check (list tuple_testable)) msg expected actual

(** Compare row multisets ignoring order. *)
let check_rows_unordered msg expected actual =
  let sort = List.sort Tuple.compare in
  Alcotest.(check (list tuple_testable)) msg (sort expected) (sort actual)

let row vals = Tuple.of_list vals
let vi i = Value.Int i
let vs s = Value.Str s
let vf f = Value.Float f
let vb b = Value.Bool b
let vnull = Value.Null

let rows_of_ints rows = List.map (fun r -> row (List.map vi r)) rows

(** Run [f] with environment variable [var] set to [value].  OCaml has
    no unsetenv, so an unset variable is restored to "": not an integer
    and not a disabling value, so every [XNFDB_*] knob falls back to its
    default. *)
let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
    f

(** Run [f] with the columnar scan path on or off ([XNFDB_COLSTORE]). *)
let with_colstore flag f =
  with_env "XNFDB_COLSTORE" (if flag then "1" else "0") f

(** Run [f] with the result cache forced on at 64 MB (so the CI leg
    that turns it off still tests it), empty, and the CO stream counters
    ({!Xnf.Xnf_ivm.stats}) at zero.  On exit the cache is emptied and
    its budget handed back to the environment; the counters stay for
    the caller to read. *)
let with_result_cache f =
  let module RC = Executor.Result_cache in
  RC.set_budget_mb (Some 64);
  RC.clear ();
  Xnf.Xnf_ivm.reset ();
  Fun.protect
    ~finally:(fun () ->
      RC.clear ();
      RC.set_budget_mb None)
    f

(** Whether [affix] occurs in [s]. *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(** The paper's running example database (Fig. 1): departments,
    employees, projects, skills, and the two M:N mapping tables.
    Instance follows the paper's instance graph: two ARC departments
    d1, d2; employees e1..e3 (e2, e3 shared via projects is modelled by
    skills sharing); projects p1, p2; skills s1..s5 with s2 unreachable. *)
let org_db () =
  let db = Engine.Database.create () in
  let ddl =
    [
      "CREATE TABLE dept (dno INT NOT NULL, dname STRING, loc STRING, PRIMARY \
       KEY (dno))";
      "CREATE TABLE emp (eno INT NOT NULL, ename STRING, sal INT, edno INT, \
       PRIMARY KEY (eno))";
      "CREATE TABLE proj (pno INT NOT NULL, pname STRING, budget INT, pdno \
       INT, PRIMARY KEY (pno))";
      "CREATE TABLE skills (sno INT NOT NULL, sname STRING, PRIMARY KEY (sno))";
      "CREATE TABLE empskills (eseno INT NOT NULL, essno INT NOT NULL)";
      "CREATE TABLE projskills (pspno INT NOT NULL, pssno INT NOT NULL)";
      "CREATE INDEX emp_edno ON emp (edno)";
      "CREATE INDEX proj_pdno ON proj (pdno)";
      "CREATE INDEX es_eno ON empskills (eseno)";
      "CREATE INDEX ps_pno ON projskills (pspno)";
      (* data *)
      "INSERT INTO dept VALUES (1, 'tools', 'ARC'), (2, 'db', 'ARC'), (3, \
       'remote', 'HAW')";
      "INSERT INTO emp VALUES (10, 'anna', 100, 1), (11, 'ben', 90, 1), (12, \
       'carol', 120, 2), (13, 'dave', 80, 3)";
      "INSERT INTO proj VALUES (20, 'p1', 1000, 1), (21, 'p2', 2000, 2), (22, \
       'p3', 500, 3)";
      "INSERT INTO skills VALUES (30, 'ml'), (31, 'db'), (32, 'os'), (33, \
       'ui'), (34, 'hw')";
      (* s32 ('os') belongs only to the dave/remote world: unreachable from ARC *)
      "INSERT INTO empskills VALUES (10, 30), (10, 31), (11, 31), (12, 33), \
       (13, 32)";
      "INSERT INTO projskills VALUES (20, 31), (21, 33), (21, 34), (22, 32)";
    ]
  in
  List.iter (fun s -> ignore (Engine.Database.exec db s)) ddl;
  db

(** Two distinct strings with equal [Value.hash], found by search: a
    row table that took a hash match for equality would merge rows that
    differ only in them. *)
let colliding_strings =
  lazy
    (let seen = Hashtbl.create 65536 in
     let rec go i =
       let s = "k" ^ string_of_int i in
       let h = Value.hash (Value.Str s) in
       match Hashtbl.find_opt seen h with
       | Some s' -> (s', s)
       | None ->
         Hashtbl.add seen h s;
         go (i + 1)
     in
     go 0)

(** A reference stream assembler on [Tuple.Tbl]: every partner span is
    copied out and looked up by value, and connections are deduped on
    boxed [Value.Int] keys.  The property suite holds
    {!Xnf.Xnf_compile.assemble} to it on generated batches. *)
let reference_assemble (c : Xnf.Xnf_compile.compiled)
    (batches_of : string -> Batch.t list) : Xnf.Hetstream.t =
  let module H = Xnf.Hetstream in
  let module R = Xnf.Xnf_rewrite in
  let id_counter = ref 0 in
  let fresh () =
    incr id_counter;
    !id_counter
  in
  let id_maps : (string, H.tuple_id Tuple.Tbl.t) Hashtbl.t = Hashtbl.create 8 in
  let items = ref [] in
  let emit item = items := item :: !items in
  List.iter
    (fun (n : R.node_output) ->
      let name = n.R.no_name in
      let info = H.find_comp c.Xnf.Xnf_compile.header name in
      let plan = List.assoc name c.Xnf.Xnf_compile.plans in
      let project =
        match n.R.no_take_cols with
        | None -> Fun.id
        | Some cols ->
          let idxs =
            Array.of_list
              (List.map (Schema.find plan.Optimizer.Plan.out_schema) cols)
          in
          fun row -> Tuple.project row idxs
      in
      let map = Tuple.Tbl.create 256 in
      Hashtbl.replace id_maps name map;
      Batch.list_iter
        (fun row ->
          if not (Tuple.Tbl.mem map row) then begin
            let id = fresh () in
            Tuple.Tbl.add map row id;
            if info.H.in_take then
              emit (H.Row { comp = info.H.comp_no; id; values = project row })
          end)
        (batches_of name))
    c.Xnf.Xnf_compile.rewritten.R.node_outputs;
  List.iter
    (fun (ro : R.rel_output) ->
      let name = ro.R.ro_name in
      let info = H.find_comp c.Xnf.Xnf_compile.header name in
      if info.H.in_take then begin
        let attr_off, attr_w = ro.R.ro_attr_span in
        let lookup comp (off, w) row =
          let part = Array.sub row off w in
          match Tuple.Tbl.find_opt (Hashtbl.find id_maps comp) part with
          | Some id -> id
          | None ->
            Errors.execution_error
              "connection references a %s tuple missing from its component"
              comp
        in
        let seen = Tuple.Tbl.create 256 in
        Batch.list_iter
          (fun row ->
            let parent = lookup ro.R.ro_parent ro.R.ro_parent_span row in
            let children =
              Array.of_list
                (List.map (fun (ch, span) -> lookup ch span row) ro.R.ro_child_spans)
            in
            let key =
              Array.of_list
                (Value.Int parent
                :: Array.to_list (Array.map (fun i -> Value.Int i) children))
            in
            if not (Tuple.Tbl.mem seen key) then begin
              Tuple.Tbl.add seen key ();
              emit
                (H.Conn
                   {
                     rel = info.H.comp_no;
                     id = fresh ();
                     parent;
                     children;
                     attrs = Array.sub row attr_off attr_w;
                   })
            end)
          (batches_of name)
      end)
    c.Xnf.Xnf_compile.rewritten.R.rel_outputs;
  { H.header = c.Xnf.Xnf_compile.header; items = List.rev !items }
