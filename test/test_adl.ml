(* Tests for the architecture description language and fabric construction
   from specs. *)

let check = Alcotest.check

let test_mesh_spec () =
  match
    Plaid_arch.Adl.of_string
      {|# comment
        family mesh
        rows 3
        cols 5
        regs_per_pe 2
        mem_cols 2|}
  with
  | Error e -> Alcotest.failf "parse failed: %s" (Format.asprintf "%a" Plaid_arch.Adl.pp_error e)
  | Ok (Plaid_arch.Adl.Mesh_spec p) ->
    check Alcotest.int "rows" 3 p.Plaid_arch.Mesh.rows;
    check Alcotest.int "cols" 5 p.Plaid_arch.Mesh.cols;
    check Alcotest.int "regs" 2 p.Plaid_arch.Mesh.regs_per_pe;
    check Alcotest.int "mem cols" 2 p.Plaid_arch.Mesh.mem_cols;
    (* defaults survive *)
    check Alcotest.int "entries default" 16 p.Plaid_arch.Mesh.config_entries
  | Ok _ -> Alcotest.fail "expected mesh spec"

let test_plaid_spec () =
  match Plaid_arch.Adl.of_string "family plaid\nrows 4\ncols 2\nbypass false" with
  | Ok (Plaid_arch.Adl.Plaid_spec { rows; cols; bypass }) ->
    check Alcotest.int "rows" 4 rows;
    check Alcotest.int "cols" 2 cols;
    check Alcotest.bool "bypass" false bypass
  | Ok _ -> Alcotest.fail "expected plaid spec"
  | Error e -> Alcotest.failf "parse failed: %s" e.msg

let test_unknown_key_rejected () =
  match Plaid_arch.Adl.of_string "family mesh\nwarp_speed 9" with
  | Error e -> check Alcotest.int "line" 2 e.Plaid_arch.Adl.line
  | Ok _ -> Alcotest.fail "expected rejection"

let test_missing_family_rejected () =
  match Plaid_arch.Adl.of_string "rows 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection"

let test_bad_value_rejected () =
  match Plaid_arch.Adl.of_string "family mesh\nrows banana" with
  | Error e -> check Alcotest.int "line" 2 e.Plaid_arch.Adl.line
  | Ok _ -> Alcotest.fail "expected rejection"

let test_fabric_construction () =
  match Plaid_arch.Adl.of_string "family plaid\nrows 1\ncols 2" with
  | Error e -> Alcotest.failf "parse: %s" e.msg
  | Ok spec ->
    let built = Plaid_core.Fabrics.of_spec spec ~name:"tiny" in
    (match built.Plaid_core.Fabrics.pcu with
    | Some pcu -> check Alcotest.int "8 FUs" 8 (Plaid_core.Pcu.n_fus pcu)
    | None -> Alcotest.fail "expected pcu descriptor")

let test_example_files_build () =
  let dir = "../../../examples/archs" in
  let dir = if Sys.file_exists dir then dir else "examples/archs" in
  if Sys.file_exists dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".adl")
    |> List.iter (fun f ->
           match Plaid_core.Fabrics.of_file (Filename.concat dir f) with
           | Error e -> Alcotest.failf "%s: %s" f e
           | Ok built ->
             check Alcotest.bool f true
               (Array.length built.Plaid_core.Fabrics.arch.Plaid_arch.Arch.fus > 0))

let test_custom_fabric_maps () =
  match Plaid_arch.Adl.of_string "family plaid\nrows 2\ncols 3" with
  | Error e -> Alcotest.failf "parse: %s" e.msg
  | Ok spec -> (
    let built = Plaid_core.Fabrics.of_spec spec ~name:"p2x3" in
    let pcu = Option.get built.Plaid_core.Fabrics.pcu in
    let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "dwconv") in
    match
      (Plaid_core.Hier_mapper.map ~params:Plaid_core.Hier_mapper.quick ~plaid:pcu ~seed:3 g)
        .Plaid_core.Hier_mapper.mapping
    with
    | None -> Alcotest.fail "custom fabric failed to map dwconv"
    | Some m -> (
      match Plaid_mapping.Mapping.validate m with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg))

(* Every named fabric builds under its full name, resolves back from it,
   and carries a mapping through the mapfile round trip that [plaidc run]
   and the serve cache depend on. *)
let test_registry_round_trip () =
  let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "dwconv") in
  List.iter
    (fun (f : Plaid_core.Fabrics.named) ->
      let b =
        match Plaid_core.Fabrics.build f.short with
        | Some b -> b
        | None -> Alcotest.failf "%s does not build" f.short
      in
      check Alcotest.string (f.short ^ " full name") f.full b.arch.Plaid_arch.Arch.name;
      (match Plaid_core.Fabrics.resolve f.full with
      | Some a -> check Alcotest.string (f.full ^ " resolves") f.full a.Plaid_arch.Arch.name
      | None -> Alcotest.failf "%s does not resolve" f.full);
      match Plaid_core.Fabrics.map ~quick:true ~seed:5 b g with
      | None -> Alcotest.failf "dwconv does not map on %s" f.short
      | Some m -> (
        let blob = Plaid_mapping.Mapfile.to_string m in
        match Plaid_mapping.Mapfile.of_string ~resolve:Plaid_core.Fabrics.resolve blob with
        | Error e -> Alcotest.failf "%s mapfile does not reload: %s" f.short e
        | Ok m' ->
          check Alcotest.string (f.short ^ " round trip") blob
            (Plaid_mapping.Mapfile.to_string m')))
    Plaid_core.Fabrics.registry;
  check Alcotest.(list string) "short names" [ "st"; "st6"; "stml"; "plaid"; "plaid3"; "plaidml" ]
    Plaid_core.Fabrics.names;
  check Alcotest.bool "unknown short name" true (Plaid_core.Fabrics.build "nosuch" = None);
  check Alcotest.bool "unknown full name" true (Plaid_core.Fabrics.resolve "st" = None)

(* The mapper ids are part of every cache key: stores on disk, and the
   benchmark's warm-serve workload, which recomputes the expected keys,
   depend on these exact strings. *)
let test_mapper_ids () =
  let id ?quick short =
    Plaid_core.Fabrics.mapper_id ?quick (Option.get (Plaid_core.Fabrics.build short))
  in
  check Alcotest.string "plaid" "hier:default" (id "plaid");
  check Alcotest.string "plaid quick" "hier:quick" (id ~quick:true "plaid");
  check Alcotest.string "st" "best_of:pf+sa:default" (id "st");
  check Alcotest.string "st quick" "best_of:pf+sa:quick" (id ~quick:true "st");
  check Alcotest.string "pf" "driver:pf:default" (Plaid_core.Fabrics.driver_mapper_id `Pf);
  check Alcotest.string "sa" "driver:sa:default" (Plaid_core.Fabrics.driver_mapper_id `Sa)

let suites =
  [
    ( "adl",
      [
        Alcotest.test_case "mesh spec" `Quick test_mesh_spec;
        Alcotest.test_case "plaid spec" `Quick test_plaid_spec;
        Alcotest.test_case "unknown key" `Quick test_unknown_key_rejected;
        Alcotest.test_case "missing family" `Quick test_missing_family_rejected;
        Alcotest.test_case "bad value" `Quick test_bad_value_rejected;
        Alcotest.test_case "fabric construction" `Quick test_fabric_construction;
        Alcotest.test_case "example files" `Quick test_example_files_build;
        Alcotest.test_case "custom fabric maps" `Slow test_custom_fabric_maps;
        Alcotest.test_case "registry round trip" `Slow test_registry_round_trip;
        Alcotest.test_case "mapper ids" `Quick test_mapper_ids;
      ] );
  ]
