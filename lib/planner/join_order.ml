(** Join-order selection: classic dynamic programming over quantifier
    subsets (System-R style), with a greedy fallback for very wide
    joins.  Cost = sum of {!Cost.stream_cost} over intermediate results
    (per-tuple work plus per-batch table-queue overhead). *)

module Qgm = Starq.Qgm

type input = {
  quants : Qgm.quant array;
  cards : float array; (* estimated cardinality per quantifier *)
  (* predicates with the set of local quantifier indexes they touch *)
  preds : (Qgm.bpred * int list) list;
}

let subset_card (inp : input) (mask : int) : float =
  let cards = ref [] in
  Array.iteri (fun i c -> if mask land (1 lsl i) <> 0 then cards := c :: !cards) inp.cards;
  let applicable =
    List.filter_map
      (fun (p, idxs) ->
        if idxs <> [] && List.for_all (fun i -> mask land (1 lsl i) <> 0) idxs
        then Some p
        else None)
      inp.preds
  in
  let resolve qid =
    Array.to_list inp.quants
    |> List.find_map (fun q ->
           if q.Qgm.qid = qid then Some q.Qgm.over else None)
  in
  Cost.join_cardinality ~resolve !cards applicable

(** Is quantifier [j] connected to subset [mask] by some join predicate? *)
let connected (inp : input) mask j =
  List.exists
    (fun (_, idxs) ->
      List.mem j idxs
      && List.exists (fun i -> i <> j && mask land (1 lsl i) <> 0) idxs)
    inp.preds

let order_dp (inp : input) : int list =
  let n = Array.length inp.quants in
  let full = (1 lsl n) - 1 in
  (* best.(mask) = (cost, order as reversed index list) *)
  let best = Array.make (full + 1) None in
  for i = 0 to n - 1 do
    (* singleton seed: each table's scan cost is charged when the DP
       extends its mask *)
    best.(1 lsl i) <- Some (0.0, [ i ])
  done;
  for mask = 1 to full do
    match best.(mask) with
    | None -> ()
    | Some (cost, order) ->
      let card = subset_card inp mask in
      (* prefer connected extensions; fall back to any *)
      let candidates = ref [] in
      for j = 0 to n - 1 do
        if mask land (1 lsl j) = 0 then candidates := j :: !candidates
      done;
      let conn = List.filter (connected inp mask) !candidates in
      let extensions = if conn <> [] then conn else !candidates in
      List.iter
        (fun j ->
          let mask' = mask lor (1 lsl j) in
          let cost' = cost +. Cost.stream_cost card in
          match best.(mask') with
          | Some (c, _) when c <= cost' -> ()
          | _ -> best.(mask') <- Some (cost', j :: order))
        extensions
  done;
  match best.(full) with
  | Some (_, order) -> List.rev order
  | None -> List.init n (fun i -> i)

let order_greedy (inp : input) : int list =
  let n = Array.length inp.quants in
  let remaining = ref (List.init n (fun i -> i)) in
  let smallest =
    List.fold_left
      (fun acc i -> if inp.cards.(i) < inp.cards.(acc) then i else acc)
      (List.hd !remaining) !remaining
  in
  let order = ref [ smallest ] in
  remaining := List.filter (fun i -> i <> smallest) !remaining;
  let mask = ref (1 lsl smallest) in
  while !remaining <> [] do
    let conn = List.filter (connected inp !mask) !remaining in
    let pool = if conn <> [] then conn else !remaining in
    let next =
      List.fold_left
        (fun acc i ->
          let c_acc = subset_card inp (!mask lor (1 lsl acc)) in
          let c_i = subset_card inp (!mask lor (1 lsl i)) in
          if c_i < c_acc then i else acc)
        (List.hd pool) pool
    in
    order := next :: !order;
    mask := !mask lor (1 lsl next);
    remaining := List.filter (fun i -> i <> next) !remaining
  done;
  List.rev !order

(** Choose an order (as indexes into [inp.quants]). *)
let choose (inp : input) : int list =
  let n = Array.length inp.quants in
  if n = 0 then []
  else if n <= 12 then order_dp inp
  else order_greedy inp
