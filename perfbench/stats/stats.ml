let sorted a =
  if Array.length a = 0 then invalid_arg "Stats: empty sample";
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let faster_half_mean a =
  let s = sorted a in
  let k = (Array.length s + 1) / 2 in
  Array.fold_left ( +. ) 0.0 (Array.sub s 0 k) /. float_of_int k

(* Python's statistics.quantiles, method="exclusive": with m = n + 1 the
   i-th of the n-1 cut points sits at position i*m/4 (1-based), linearly
   interpolated between its neighbours. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n = 1 then (s.(0), s.(0), s.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (i * m / 4) (n - 1)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, median s, cut 3)

let spread a =
  let q1, med, q3 = quartiles a in
  if med = 0.0 then 0.0 else (q3 -. q1) /. med

let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9)))

let percentile a p =
  let s = sorted a in
  s.(rank ~n:(Array.length s) p - 1)

let beyond ~n p = n - rank ~n p

let supported ~n candidates =
  List.fold_left
    (fun best p ->
      if beyond ~n p >= 10 then match best with Some b when b >= p -> best | _ -> Some p
      else best)
    None candidates

type span = { name : string; op : int; tid : int; start : float; dur : float }

(* Per thread, walk spans in start order (longer first on ties, so a parent
   precedes a child that starts with it) keeping the chain of open
   ancestors; each span charges its duration to its direct parent only. *)
let self_times spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value (Hashtbl.find_opt by_tid s.tid) ~default:[]))
    spans;
  let tids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_tid []) in
  List.concat_map
    (fun tid ->
      let ordered =
        List.sort
          (fun a b ->
            match Float.compare a.start b.start with
            | 0 -> Float.compare b.dur a.dur
            | c -> c)
          (Hashtbl.find by_tid tid)
      in
      let cells = List.map (fun s -> (s, ref 0.0)) ordered in
      let rec settle s = function
        | (p, _) :: rest when p.start +. p.dur <= s.start -> settle s rest
        | stack -> stack
      in
      let _ =
        List.fold_left
          (fun stack ((s, _) as cell) ->
            let stack = settle s stack in
            (match stack with (_, covered) :: _ -> covered := !covered +. s.dur | [] -> ());
            cell :: stack)
          [] cells
      in
      List.map (fun (s, covered) -> (s, Float.max 0.0 (s.dur -. !covered))) cells)
    tids
