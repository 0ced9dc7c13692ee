open Eval

let is_frontier c name = List.mem name c.c_frontier

let dominated_by c name = List.assoc_opt name c.c_dominated

(* Candidates in ascending-area order (ties by name), with their display
   letter: 'a' + rank, uppercase on the frontier.  Past 26 candidates the
   letter degrades to '*' — the table still names everything. *)
let lettered c =
  let by_area =
    List.sort
      (fun a b ->
        compare
          (a.cr_point.Pareto.p_area, Space.name a.cr_cand)
          (b.cr_point.Pareto.p_area, Space.name b.cr_cand))
      c.c_evaluated
  in
  List.mapi
    (fun i r ->
      let name = Space.name r.cr_cand in
      let letter =
        if i < 26 then Char.chr (Char.code 'a' + i) else '*'
      in
      let letter = if is_frontier c name then Char.uppercase_ascii letter else letter in
      (letter, r))
    by_area

let scatter_w = 57
let scatter_h = 17

let scatter buf letters =
  match letters with
  | [] -> ()
  | _ ->
    let xs = List.map (fun (_, r) -> r.cr_point.Pareto.p_area) letters in
    let ys = List.map (fun (_, r) -> log10 (Float.max 1e-9 r.cr_point.Pareto.p_epo)) letters in
    let xmin = List.fold_left Float.min (List.hd xs) xs in
    let xmax = List.fold_left Float.max (List.hd xs) xs in
    let ymin = List.fold_left Float.min (List.hd ys) ys in
    let ymax = List.fold_left Float.max (List.hd ys) ys in
    let cell v lo hi n =
      if hi -. lo < 1e-12 then n / 2
      else
        let t = (v -. lo) /. (hi -. lo) in
        min (n - 1) (max 0 (int_of_float (Float.round (t *. float_of_int (n - 1)))))
    in
    let grid = Array.make_matrix scatter_h scatter_w ' ' in
    (* dominated first, frontier last so uppercase letters win collisions *)
    let ordered =
      List.filter (fun (l, _) -> Char.lowercase_ascii l = l) letters
      @ List.filter (fun (l, _) -> Char.lowercase_ascii l <> l) letters
    in
    List.iter
      (fun (letter, r) ->
        let gx = cell r.cr_point.Pareto.p_area xmin xmax scatter_w in
        let gy = cell (log10 (Float.max 1e-9 r.cr_point.Pareto.p_epo)) ymin ymax scatter_h in
        grid.(scatter_h - 1 - gy).(gx) <- letter)
      ordered;
    Buffer.add_string buf
      "  Pareto scatter: x = system area (um^2), y = energy/op (pJ, log scale)\n";
    Buffer.add_string buf
      "  uppercase = frontier, lowercase = dominated\n\n";
    let y_lo = 10. ** ymin and y_hi = 10. ** ymax in
    for row = 0 to scatter_h - 1 do
      let label =
        if row = 0 then Printf.sprintf "%8.2f" y_hi
        else if row = scatter_h - 1 then Printf.sprintf "%8.2f" y_lo
        else String.make 8 ' '
      in
      Buffer.add_string buf ("  " ^ label ^ " |");
      Buffer.add_string buf (String.init scatter_w (fun i -> grid.(row).(i)));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf ("  " ^ String.make 8 ' ' ^ " +" ^ String.make scatter_w '-' ^ "\n");
    let lo = Printf.sprintf "%.0f" xmin and hi = Printf.sprintf "%.0f" xmax in
    let pad = max 1 (scatter_w + 1 - String.length lo - String.length hi) in
    Buffer.add_string buf
      (Printf.sprintf "  %8s  %s%s%s\n" "" lo (String.make pad ' ') hi)

let to_string c =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "Design-space exploration\n";
  pf "  space=%s  suite=%s (%d kernels)  strategy=%s  seed=%d%s\n" c.c_space
    c.c_suite c.c_n_kernels
    (Search.strategy_to_string c.c_strategy)
    c.c_seed
    (if c.c_quick then "  quick" else "");
  pf "  %d candidates evaluated, %d pruned without full evaluation, %d kernel evaluations\n\n"
    (List.length c.c_evaluated)
    (List.length c.c_pruned) c.c_kernel_evals;
  let letters = lettered c in
  pf "  objectives minimized: system area, energy/op, geomean II, unmapped kernels\n";
  pf "  (energy/op and II charge unmapped kernels fixed penalties)\n\n";
  pf "  %2s  %-28s %10s %9s %6s %7s  %s\n" "pt" "candidate" "area_um2" "pJ/op"
    "gmII" "mapped" "status";
  List.iter
    (fun (letter, r) ->
      let name = Space.name r.cr_cand in
      let p = r.cr_point in
      let mapped =
        Array.fold_left (fun n k -> if k.ko_ok then n + 1 else n) 0 r.cr_kernels
      in
      let status =
        if is_frontier c name then "frontier"
        else
          match dominated_by c name with
          | Some w -> Printf.sprintf "dominated by %s" w
          | None -> "dominated"
      in
      pf "   %c  %-28s %10.0f %9.2f %6.2f %4d/%-2d  %s\n" letter name
        p.Pareto.p_area p.Pareto.p_epo p.Pareto.p_ii mapped c.c_n_kernels status)
    letters;
  if c.c_pruned <> [] then (
    pf "\n  pruned without full evaluation (dominated at their optimistic bound):\n";
    List.iter (fun n -> pf "    %s\n" n) c.c_pruned);
  pf "\n";
  scatter buf letters;
  Buffer.contents buf

let family_to_string = function Space.Mesh -> "mesh" | Space.Plaid -> "plaid"

let kernel_json (k : kernel_outcome) =
  Plaid_obs.Json.Obj
    [ ("name", Plaid_obs.Json.Str k.ko_kernel);
      ("ok", Plaid_obs.Json.Bool k.ko_ok);
      ("ii", Plaid_obs.Json.Num (float_of_int k.ko_ii));
      ("energy_pj", Plaid_obs.Json.Num k.ko_energy);
      ("ops", Plaid_obs.Json.Num (float_of_int k.ko_ops));
      ("energy_per_op_pj", Plaid_obs.Json.Num k.ko_epo) ]

let candidate_json c r =
  let cand = Space.normalize r.cr_cand in
  let name = Space.name cand in
  let p = r.cr_point in
  let built = Space.build cand in
  Plaid_obs.Json.Obj
    [ ("name", Plaid_obs.Json.Str name);
      ("family", Plaid_obs.Json.Str (family_to_string cand.Space.family));
      ("rows", Plaid_obs.Json.Num (float_of_int cand.Space.rows));
      ("cols", Plaid_obs.Json.Num (float_of_int cand.Space.cols));
      ("config_entries", Plaid_obs.Json.Num (float_of_int cand.Space.config_entries));
      ("regs_per_pe", Plaid_obs.Json.Num (float_of_int cand.Space.regs_per_pe));
      ("mem_cols", Plaid_obs.Json.Num (float_of_int cand.Space.mem_cols));
      ("bypass", Plaid_obs.Json.Bool cand.Space.bypass);
      ("pruned_fu", Plaid_obs.Json.Bool cand.Space.pruned);
      ("spm_kb", Plaid_obs.Json.Num (float_of_int cand.Space.spm_kb));
      ( "objectives",
        Plaid_obs.Json.Obj
          [ ("area_um2", Plaid_obs.Json.Num p.Pareto.p_area);
            ("energy_per_op_pj", Plaid_obs.Json.Num p.Pareto.p_epo);
            ("geomean_ii", Plaid_obs.Json.Num p.Pareto.p_ii);
            ("failures", Plaid_obs.Json.Num p.Pareto.p_fail) ] );
      ("frontier", Plaid_obs.Json.Bool (is_frontier c name));
      ( "dominated_by",
        match dominated_by c name with
        | Some w -> Plaid_obs.Json.Str w
        | None -> Plaid_obs.Json.Null );
      ( "area",
        Plaid_model.Export.area_json built.Plaid_core.Fabrics.arch ~spm_kb:cand.Space.spm_kb );
      ("kernels", Plaid_obs.Json.Arr (Array.to_list (Array.map kernel_json r.cr_kernels))) ]

let to_json c =
  Plaid_obs.Json.Obj
    [ ("space", Plaid_obs.Json.Str c.c_space);
      ("suite", Plaid_obs.Json.Str c.c_suite);
      ("kernels", Plaid_obs.Json.Num (float_of_int c.c_n_kernels));
      ("strategy", Plaid_obs.Json.Str (Search.strategy_to_string c.c_strategy));
      ("seed", Plaid_obs.Json.Num (float_of_int c.c_seed));
      ("outer", Plaid_obs.Json.Num (float_of_int c.c_outer));
      ("quick", Plaid_obs.Json.Bool c.c_quick);
      ("kernel_evals", Plaid_obs.Json.Num (float_of_int c.c_kernel_evals));
      ("frontier", Plaid_obs.Json.Arr (List.map (fun n -> Plaid_obs.Json.Str n) c.c_frontier));
      ("pruned", Plaid_obs.Json.Arr (List.map (fun n -> Plaid_obs.Json.Str n) c.c_pruned));
      ("candidates", Plaid_obs.Json.Arr (List.map (candidate_json c) c.c_evaluated)) ]

let to_json_string c = Plaid_obs.Json.to_string (to_json c)
