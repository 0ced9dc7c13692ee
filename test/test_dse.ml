(* Design-space exploration: Pareto algebra, search-strategy contracts
   (QCheck over synthetic oracles), space presets and the space parser, and
   one real tiny campaign pinning halving == exhaustive on live mappers. *)

open Plaid_dse

let check = Alcotest.check

(* ------------------------------------------------------------- generators *)

let point_gen =
  QCheck.Gen.(
    map
      (fun (a, e, i, f) ->
        { Pareto.p_area = float_of_int a; p_epo = float_of_int e;
          p_ii = float_of_int i; p_fail = float_of_int f })
      (quad (int_range 1 6) (int_range 1 6) (int_range 1 6) (int_range 0 2)))

let point_print p =
  Printf.sprintf "{area=%g; epo=%g; ii=%g; fail=%g}" p.Pareto.p_area p.Pareto.p_epo
    p.Pareto.p_ii p.Pareto.p_fail

(* Small coordinate ranges on purpose: equal and comparable points must be
   common or the properties test nothing. *)
let point_arb = QCheck.make ~print:point_print point_gen

let points_arb =
  QCheck.make
    ~print:(fun ps -> String.concat "; " (List.map point_print ps))
    QCheck.Gen.(list_size (int_range 1 18) point_gen)

(* --------------------------------------------------- dominance is a s.p.o. *)

let prop_irreflexive =
  QCheck.Test.make ~name:"dominance is irreflexive" ~count:200 point_arb (fun p ->
      not (Pareto.dominates p p))

let prop_antisymmetric =
  QCheck.Test.make ~name:"dominance is antisymmetric" ~count:500
    QCheck.(pair point_arb point_arb)
    (fun (a, b) -> not (Pareto.dominates a b && Pareto.dominates b a))

let prop_transitive =
  QCheck.Test.make ~name:"dominance is transitive" ~count:1000
    QCheck.(triple point_arb point_arb point_arb)
    (fun (a, b, c) ->
      QCheck.assume (Pareto.dominates a b && Pareto.dominates b c);
      Pareto.dominates a c)

(* ------------------------------------------------------ frontier structure *)

let prop_frontier_mutually_nondominated =
  QCheck.Test.make ~name:"frontier points are mutually non-dominated" ~count:300
    points_arb (fun ps ->
      let entries = List.mapi (fun i p -> (i, p)) ps in
      let frontier, dominated = Pareto.classify entries in
      List.for_all
        (fun (_, p) ->
          List.for_all (fun (_, q) -> not (Pareto.dominates q p)) frontier)
        frontier
      && List.for_all
           (fun (_, p, w) ->
             match List.assoc_opt w frontier with
             | None -> false (* witness must be a frontier member *)
             | Some wp -> Pareto.dominates wp p)
           (List.map (fun (i, p, w) -> (i, p, w)) dominated))

let prop_frontier_order_invariant =
  QCheck.Test.make ~name:"frontier membership ignores evaluation order" ~count:300
    QCheck.(pair points_arb small_int)
    (fun (ps, salt) ->
      let entries = List.mapi (fun i p -> (i, p)) ps in
      let shuffled =
        Plaid_util.Rng.shuffle_list (Plaid_util.Rng.create salt) entries
      in
      let ids l = List.sort compare (List.map fst (fst (Pareto.classify l))) in
      ids entries = ids shuffled)

(* --------------------------------------- halving never loses the frontier *)

(* Synthetic oracle: per-candidate area, a full (candidate x kernel) matrix
   of outcomes, and per-pair optimistic bounds constructed to under-shoot
   the truth (any sound bound scheme suffices for the theorem). *)
let synth_gen =
  QCheck.Gen.(
    int_range 2 10 >>= fun n ->
    int_range 1 6 >>= fun k ->
    let cell =
      map3
        (fun ok ii epo -> (ok, float_of_int ii, float_of_int epo))
        (frequency [ (4, return true); (1, return false) ])
        (int_range 1 5) (int_range 1 5)
    in
    array_size (return n) (array_size (return k) cell) >>= fun matrix ->
    array_size (return n) (int_range 1 9) >>= fun areas ->
    array_size (return n) (array_size (return k) (float_range 0.0 1.0))
    >>= fun factors ->
    int_range 1 k >>= fun rung ->
    return (n, k, matrix, areas, factors, rung))

let synth_print (n, k, matrix, areas, _factors, rung) =
  let b = Buffer.create 256 in
  Printf.bprintf b "n=%d k=%d rung=%d areas=[%s]\n" n k rung
    (String.concat ";" (Array.to_list (Array.map string_of_int areas)));
  Array.iteri
    (fun i row ->
      Printf.bprintf b "  c%d: %s\n" i
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun (ok, ii, epo) ->
                   Printf.sprintf "%c/%g/%g" (if ok then '+' else '-') ii epo)
                 row))))
    matrix;
  Buffer.contents b

let synth_oracle (n, k, matrix, areas, factors, _rung) =
  ignore n;
  let eval_cell i j =
    let ok, ii, epo = matrix.(i).(j) in
    { Search.ke_ok = ok; ke_ii = ii; ke_epo = epo }
  in
  { Search.n_kernels = k;
    area = (fun i -> float_of_int areas.(i));
    eval = List.map (fun (i, j) -> eval_cell i j);
    bound =
      (fun i j ->
        let ok, ii, epo = matrix.(i).(j) in
        let eff_ii = if ok then ii else Search.fail_ii in
        let eff_epo = if ok then epo else Search.fail_epo in
        { Search.ke_ok = true;
          ke_ii = eff_ii *. factors.(i).(j);
          ke_epo = eff_epo *. factors.(i).(j) }) }

let frontier_ids (o : int Search.outcome) =
  let entries =
    List.map (fun (r : int Search.result) -> (r.sr_cand, r.sr_point)) o.results
  in
  List.sort compare (List.map fst (fst (Pareto.classify entries)))

let prop_halving_keeps_frontier =
  QCheck.Test.make ~name:"successive halving preserves the exhaustive frontier"
    ~count:300
    (QCheck.make ~print:synth_print synth_gen)
    (fun ((n, _, _, _, _, rung) as spec) ->
      let oracle = synth_oracle spec in
      let cands = List.init n Fun.id in
      let ex = Search.run ~oracle ~strategy:Search.Exhaustive ~seed:7 cands in
      let ha =
        Search.run ~oracle ~strategy:(Search.Halving { rung }) ~seed:7 cands
      in
      (* pruned candidates really were skipped, and the frontier is intact *)
      List.length ha.results + List.length ha.pruned = n
      && frontier_ids ex = frontier_ids ha)

let prop_random_subset =
  QCheck.Test.make ~name:"random sampling evaluates exactly the sample budget"
    ~count:100
    (QCheck.make ~print:synth_print synth_gen)
    (fun ((n, _, _, _, _, rung) as spec) ->
      let oracle = synth_oracle spec in
      let cands = List.init n Fun.id in
      let samples = rung (* reuse as a small positive int *) in
      let o =
        Search.run ~oracle ~strategy:(Search.Random { samples }) ~seed:11 cands
      in
      List.length o.results = min samples n
      && List.length o.results + List.length o.pruned = n)

(* ----------------------------------------------------------------- spaces *)

let test_preset_names () =
  check (Alcotest.list Alcotest.string) "presets"
    [ "tiny"; "paper"; "mesh-sweep"; "plaid-sweep" ]
    Space.preset_names;
  List.iter
    (fun (pname, s) ->
      check Alcotest.bool
        (pname ^ " is non-empty")
        true
        (s.Space.candidates <> []);
      (* canonical names are unique *)
      let names = List.map Space.name s.Space.candidates in
      check
        Alcotest.(list string)
        (pname ^ " names unique")
        (List.sort_uniq compare names)
        (List.sort compare names))
    Space.presets

let test_paper_space_builds () =
  List.iter
    (fun c ->
      let b = Space.build c in
      check Alcotest.string "arch named after candidate" (Space.name c)
        b.Plaid_core.Fabrics.arch.Plaid_arch.Arch.name;
      match (c.Space.family, b.Plaid_core.Fabrics.pcu) with
      | Space.Plaid, None -> Alcotest.fail "plaid candidate built without PCU"
      | Space.Plaid, Some pcu ->
        check Alcotest.int "pcu entries follow the candidate"
          c.Space.config_entries
          pcu.Plaid_core.Pcu.arch.Plaid_arch.Arch.config.entries
      | Space.Mesh, Some _ -> Alcotest.fail "mesh candidate built a PCU"
      | Space.Mesh, None ->
        check Alcotest.int "mesh entries follow the candidate"
          c.Space.config_entries b.Plaid_core.Fabrics.arch.Plaid_arch.Arch.config.entries)
    (List.assoc "paper" Space.presets).Space.candidates

(* Regression: a bypass-less mesh candidate must build (the mesh wiring
   used to look ports up with partial [List.nth] calls that blew up with
   [Failure "nth"] the moment the bypass axis actually varied), carry the
   [_nobyp] marker in its canonical name, and shed the byp_* resources. *)
let test_mesh_nobypass_candidate_builds () =
  let c =
    Space.normalize
      { Space.family = Space.Mesh; rows = 4; cols = 4; config_entries = 8;
        regs_per_pe = 4; mem_cols = 1; bypass = false; pruned = false; spm_kb = 16 }
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "bypass survives normalization" false c.Space.bypass;
  let name = Space.name c in
  check Alcotest.bool (name ^ " is marked _nobyp") true (contains name "_nobyp");
  let b = Space.build c in
  let has_byp arch =
    Array.exists
      (fun (r : Plaid_arch.Arch.resource) -> contains r.rname ".byp_")
      arch.Plaid_arch.Arch.resources
  in
  check Alcotest.bool "no byp resources without bypass" false (has_byp b.Plaid_core.Fabrics.arch);
  (* the bypassed twin is a distinct candidate with a distinct name *)
  let c' = Space.normalize { c with Space.bypass = true } in
  check Alcotest.bool "bypassed twin has a different name" true (Space.name c' <> name);
  let b' = Space.build c' in
  check Alcotest.bool "bypassed twin keeps byp resources" true (has_byp b'.Plaid_core.Fabrics.arch)

let test_normalization_dedup () =
  match
    Space.of_string ~name:"t" "family plaid\nbypass true\nregs_per_pe 2 4 8"
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
    (* regs_per_pe is mesh-only: all three collapse to one Plaid candidate *)
    check Alcotest.int "normalized duplicates collapse" 1
      (List.length s.Space.candidates)

let test_space_parser () =
  (match
     Space.of_string ~name:"user"
       "# comment\nfamily mesh plaid\nrows 4\ncols 4\nconfig_entries 8 16\n"
   with
  | Error e -> Alcotest.fail e
  | Ok s ->
    check Alcotest.int "product size" 4 (List.length s.Space.candidates);
    check Alcotest.string "space name" "user" s.Space.space_name);
  let expect_err what text =
    match Space.of_string ~name:"t" text with
    | Ok _ -> Alcotest.fail ("expected error: " ^ what)
    | Error e -> e
  in
  let e = expect_err "unknown axis" "family mesh\nwidgets 3" in
  check Alcotest.bool "unknown axis names the line" true
    (String.length e >= 7 && String.sub e 0 7 = "line 2:");
  let e = expect_err "bad value" "rows x" in
  check Alcotest.bool "bad value names the line" true
    (String.length e >= 7 && String.sub e 0 7 = "line 1:");
  let e = expect_err "missing values" "rows" in
  check Alcotest.bool "missing values is an error" true
    (String.length e >= 7 && String.sub e 0 7 = "line 1:");
  let e = expect_err "duplicate axis" "rows 4\nrows 6" in
  check Alcotest.bool "duplicate axis names the line" true
    (String.length e >= 7 && String.sub e 0 7 = "line 2:");
  let e = expect_err "range" "rows 40" in
  check Alcotest.bool "out-of-range candidate rejected" true
    (String.length e > 0);
  ignore (expect_err "too large" "rows 2 3 4 5 6 7\ncols 2 3 4 5 6 7\nconfig_entries 1 2 4 8 16 32\nregs_per_pe 1 2 3 4")

(* ------------------------------------------- one real campaign, tiny size *)

let quick_entry name =
  match Plaid_workloads.Suite.find name with
  | e -> e
  | exception Not_found -> Alcotest.failf "suite entry %s missing" name

let test_real_halving_matches_exhaustive () =
  let space =
    match Space.of_string ~name:"unit" "family mesh plaid\nrows 2 4\ncols 2 4\nconfig_entries 8" with
    | Ok s ->
      (* keep it square and tiny: 2x2 plaid + 4x4 mesh *)
      { s with
        Space.candidates =
          List.filter
            (fun c -> c.Space.rows = c.Space.cols)
            s.Space.candidates }
    | Error e -> Alcotest.fail e
  in
  let suite = [ quick_entry "dwconv" ] in
  let run strategy =
    let t = Eval.create ~seed:2025 ~quick:true () in
    Eval.run t ~space ~suite_name:"unit" ~suite ~strategy
  in
  let ex = run Search.Exhaustive in
  let ha = run (Search.Halving { rung = 1 }) in
  check
    Alcotest.(list string)
    "halving frontier == exhaustive frontier" ex.Eval.c_frontier
    ha.Eval.c_frontier;
  (* evaluated + pruned covers the space *)
  check Alcotest.int "halving accounts for every candidate"
    (List.length space.Space.candidates)
    (List.length ha.Eval.c_evaluated + List.length ha.Eval.c_pruned);
  (* reports are pure functions of the campaign *)
  check Alcotest.string "report is reproducible"
    (Report.to_string ex)
    (Report.to_string (run Search.Exhaustive))

let test_report_json_roundtrip () =
  let space = List.assoc "tiny" Space.presets in
  let space = { space with Space.candidates = [ List.hd space.Space.candidates ] } in
  let suite = [ quick_entry "jacobi" ] in
  let t = Eval.create ~seed:2025 ~quick:true () in
  let c = Eval.run t ~space ~suite_name:"unit" ~suite ~strategy:Search.Exhaustive in
  match Plaid_obs.Json.of_string (Report.to_json_string c) with
  | Error e -> Alcotest.fail ("report JSON does not parse: " ^ e)
  | Ok j ->
    let member k = Plaid_obs.Json.member k j in
    check Alcotest.bool "has candidates" true
      (match member "candidates" with
      | Some (Plaid_obs.Json.Arr (_ :: _)) -> true
      | _ -> false);
    check (Alcotest.option Alcotest.string) "space name" (Some "tiny")
      (Option.bind (member "space") Plaid_obs.Json.str);
    (* the lone candidate is trivially the frontier *)
    check Alcotest.bool "frontier non-empty" true
      (match member "frontier" with
      | Some (Plaid_obs.Json.Arr (_ :: _)) -> true
      | _ -> false)

let suites =
  [ ( "dse",
      [ Alcotest.test_case "preset names and uniqueness" `Quick test_preset_names;
        Alcotest.test_case "paper space builds" `Quick test_paper_space_builds;
        Alcotest.test_case "normalization collapses duplicates" `Quick
          test_normalization_dedup;
        Alcotest.test_case "bypass-less mesh candidate builds" `Quick
          test_mesh_nobypass_candidate_builds;
        Alcotest.test_case "space parser" `Quick test_space_parser;
        Alcotest.test_case "real halving matches exhaustive" `Slow
          test_real_halving_matches_exhaustive;
        Alcotest.test_case "report JSON round-trips" `Slow test_report_json_roundtrip;
        Test_qc.to_alcotest prop_irreflexive;
        Test_qc.to_alcotest prop_antisymmetric;
        Test_qc.to_alcotest prop_transitive;
        Test_qc.to_alcotest prop_frontier_mutually_nondominated;
        Test_qc.to_alcotest prop_frontier_order_invariant;
        Test_qc.to_alcotest prop_halving_keeps_frontier;
        Test_qc.to_alcotest prop_random_subset ] ) ]
