(** Disk persistence of the XNF cache (paper Sect. 5): "for long
    transactions, XNF allows the cache to be stored on disk and
    retrieved later, thereby protecting the cache from client machine's
    failure."

    The on-disk format is the heterogeneous-stream wire format plus the
    pending (not yet flushed) update operations. *)

open Relcore
module H = Xnf.Hetstream

(* version 2: floats carry their full 8-byte IEEE pattern (v1 truncated
   the sign bit through a 63-bit varint) *)
let magic = "XNFCACHE2\n"

(** Rebuild a heterogeneous stream from the cache's current state
    (including local inserts/updates; deleted nodes are dropped).  Ids
    are renumbered 1..N in the order written, rows then connections: a
    stream carries no client-side negative ids, and its ids stay dense
    however many nodes were deleted (see {!Workspace.of_stream}). *)
let stream_of_workspace (ws : Workspace.t) : H.t =
  let items = ref [] and next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let renumbered = Workspace.Int_tbl.create 64 in
  let id_of (n : Conode.t) = Workspace.Int_tbl.find renumbered n.Conode.id in
  let comp_no name = (Workspace.find_store ws name).Workspace.info.H.comp_no in
  let live =
    List.map
      (fun comp -> (comp_no comp, Workspace.nodes ws comp))
      (Workspace.node_component_names ws)
  in
  List.iter
    (fun (comp, nodes) ->
      List.iter
        (fun (n : Conode.t) ->
          let id = fresh () in
          Workspace.Int_tbl.replace renumbered n.Conode.id id;
          items := H.Row { comp; id; values = n.Conode.values } :: !items)
        nodes)
    live;
  (* connections, once each (via parents) *)
  List.iter
    (fun (_, nodes) ->
      List.iter
        (fun (n : Conode.t) ->
          Array.iter
            (fun (c : Conode.conn) ->
              items :=
                H.Conn
                  {
                    rel = comp_no c.Conode.rel;
                    id = fresh ();
                    parent = id_of c.Conode.parent;
                    children = Array.map id_of c.Conode.children;
                    attrs = c.Conode.attrs;
                  }
                :: !items)
            n.Conode.out_conns)
        nodes)
    live;
  { H.header = ws.Workspace.header; items = List.rev !items }

let write_op buf (op : Workspace.pending_op) =
  let wtuple = H.write_values buf in
  match op with
  | Workspace.P_insert { comp; values } ->
    Buffer.add_char buf 'i';
    H.write_string buf comp;
    wtuple values
  | Workspace.P_update { comp; old_values; new_values } ->
    Buffer.add_char buf 'u';
    H.write_string buf comp;
    wtuple old_values;
    wtuple new_values
  | Workspace.P_delete { comp; values } ->
    Buffer.add_char buf 'd';
    H.write_string buf comp;
    wtuple values
  | Workspace.P_connect { rel; parent; child } ->
    Buffer.add_char buf 'c';
    H.write_string buf rel;
    wtuple parent;
    wtuple child
  | Workspace.P_disconnect { rel; parent; child } ->
    Buffer.add_char buf 'x';
    H.write_string buf rel;
    wtuple parent;
    wtuple child

let read_op (r : H.reader) : Workspace.pending_op =
  let rtuple () = H.read_values r (H.read_int r) in
  match H.read_char r with
  | 'i' ->
    let comp = H.read_string r in
    Workspace.P_insert { comp; values = rtuple () }
  | 'u' ->
    let comp = H.read_string r in
    let old_values = rtuple () in
    let new_values = rtuple () in
    Workspace.P_update { comp; old_values; new_values }
  | 'd' ->
    let comp = H.read_string r in
    Workspace.P_delete { comp; values = rtuple () }
  | 'c' ->
    let rel = H.read_string r in
    let parent = rtuple () in
    let child = rtuple () in
    Workspace.P_connect { rel; parent; child }
  | 'x' ->
    let rel = H.read_string r in
    let parent = rtuple () in
    let child = rtuple () in
    Workspace.P_disconnect { rel; parent; child }
  | c -> Errors.execution_error "corrupt cache file: op tag %C" c

(** Save the cache (state + pending operations) to a file. *)
let save (ws : Workspace.t) (path : string) : unit =
  let stream = stream_of_workspace ws in
  let body = H.serialize stream in
  let buf = Buffer.create (String.length body + 1024) in
  Buffer.add_string buf magic;
  H.write_int buf (String.length body);
  Buffer.add_string buf body;
  let ops = Workspace.pending_ops ws in
  H.write_int buf (List.length ops);
  List.iter (write_op buf) ops;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf))

(** Load a cache from a file. *)
let load (path : string) : Workspace.t =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if
    String.length data < String.length magic
    || String.sub data 0 (String.length magic) <> magic
  then Errors.execution_error "not an XNF cache file: %s" path;
  let r = { H.data; pos = String.length magic } in
  (* A file cut short or overwritten surfaces as an out-of-bounds read
     deep in the stream reader; funnel every such slip into a typed
     error, and insist the ops section ends the file. *)
  let stream, ops =
    try
      let body_len = H.read_int r in
      let body = String.sub data r.H.pos body_len in
      r.H.pos <- r.H.pos + body_len;
      let stream = H.deserialize body in
      let n_ops = H.read_int r in
      (stream, List.init n_ops (fun _ -> read_op r))
    with Invalid_argument _ | Failure _ ->
      Errors.execution_error "corrupt cache file (truncated): %s" path
  in
  if r.H.pos <> String.length data then
    Errors.execution_error "corrupt cache file (%d trailing bytes): %s"
      (String.length data - r.H.pos) path;
  let ws = Workspace.of_stream stream in
  ws.Workspace.pending <- List.rev ops;
  ws
