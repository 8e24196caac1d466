(** Sample statistics and result printing for the benchmark.

    Percentiles use the nearest-rank rule.  A percentile is only
    reported when at least {!min_beyond} samples lie above its rank:
    fewer than that and the value is decided by a handful of outliers. *)

let min_beyond = 10

(** Index (0-based) of the nearest-rank [p]-th percentile in [n] sorted
    samples. *)
let rank n p =
  let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  max 0 (min (n - 1) i)

(** Samples strictly beyond the [p]-th percentile's rank. *)
let beyond n p = if n = 0 then 0 else n - 1 - rank n p

let supported n p = beyond n p >= min_beyond

(** Smallest sample count for which the [p]-th percentile is supported. *)
let min_samples p =
  let rec go n = if supported n p then n else go (n + 1) in
  go 1

(** [Some v] when the percentile is supported, [None] otherwise. *)
let percentile (samples : float array) p =
  let n = Array.length samples in
  if not (supported n p) then None
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    Some a.(rank n p)
  end

let median (l : float list) =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** A growable buffer of samples. *)
module Samples = struct
  type t = { mutable v : float array; mutable n : int }

  let create () = { v = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.v then begin
      let b = Array.make (max 1024 (2 * t.n)) 0.0 in
      Array.blit t.v 0 b 0 t.n;
      t.v <- b
    end;
    t.v.(t.n) <- v;
    t.n <- t.n + 1

  let values t = Array.sub t.v 0 t.n
  let count t = t.n
  let sum t = Array.fold_left ( +. ) 0.0 (values t)
end

(* -- result line -------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(** The benchmark's last output line. *)
let result_line ~correct ~attempted ~failed (metrics : (string * string * float) list) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
              (json_number v) (json_string unit))
          metrics))
