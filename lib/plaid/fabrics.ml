type built = { arch : Plaid_arch.Arch.t; pcu : Pcu.t option }

let of_mesh arch = { arch; pcu = None }
let of_pcu pcu = { arch = pcu.Pcu.arch; pcu = Some pcu }

let of_spec spec ~name =
  match spec with
  | Plaid_arch.Adl.Mesh_spec p -> of_mesh (Plaid_arch.Mesh.build p ~name)
  | Plaid_arch.Adl.Plaid_spec { rows; cols; bypass } ->
    of_pcu (Pcu.build ~bypass ~rows ~cols ~name ())

let of_file path =
  match Plaid_arch.Adl.of_file path with
  | exception Sys_error msg -> Error msg
  | Error e -> Error (Format.asprintf "%s: %a" path Plaid_arch.Adl.pp_error e)
  | Ok spec ->
    let name = Filename.remove_extension (Filename.basename path) in
    Ok (of_spec spec ~name)

type named = { short : string; full : string; build : unit -> built }

(* Each builder receives the full name; the two ML fabrics carry the names
   Specialize gives them, which the registry test checks against [full]. *)
let registry =
  let mesh_of params name = of_mesh (Plaid_arch.Mesh.build params ~name) in
  let plaid_of n name = of_pcu (Pcu.build ~rows:n ~cols:n ~name ()) in
  List.map
    (fun (short, full, build) -> { short; full; build = (fun () -> build full) })
    [ ("st", "st_4x4", mesh_of Plaid_arch.Mesh.spatio_temporal_4x4);
      ("st6", "st_6x6", mesh_of Plaid_arch.Mesh.spatio_temporal_6x6);
      ("stml", "st_ml_4x4", fun _ -> of_mesh (Specialize.st_ml ()));
      ("plaid", "plaid_2x2", plaid_of 2);
      ("plaid3", "plaid_3x3", plaid_of 3);
      ("plaidml", "plaid_ml_2x2", fun _ -> of_pcu (Specialize.plaid_ml ())) ]

let names = List.map (fun f -> f.short) registry

let build short =
  List.find_opt (fun f -> f.short = short) registry |> Option.map (fun f -> f.build ())

let resolve full =
  List.find_opt (fun f -> f.full = full) registry |> Option.map (fun f -> (f.build ()).arch)

let mapper_id ?(quick = false) b =
  Printf.sprintf "%s:%s"
    (match b.pcu with Some _ -> "hier" | None -> "best_of:pf+sa")
    (if quick then "quick" else "default")

let driver_mapper_id algo =
  Printf.sprintf "driver:%s:default" (match algo with `Sa -> "sa" | `Pf -> "pf")

let map ?pool ?(quick = false) ~seed b dfg =
  match b.pcu with
  | Some plaid ->
    let params = if quick then Hier_mapper.quick else Hier_mapper.default in
    (Hier_mapper.map ~params ~plaid ~seed dfg).Hier_mapper.mapping
  | None ->
    let open Plaid_mapping in
    let algos =
      if quick then [ Driver.Pf Pathfinder.quick; Driver.Sa Anneal.quick ]
      else [ Driver.Pf Pathfinder.default; Driver.Sa Anneal.default ]
    in
    (Driver.best_of ?pool ~algos ~arch:b.arch ~dfg ~seed ()).Driver.mapping
